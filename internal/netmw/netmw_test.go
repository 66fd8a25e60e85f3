package netmw

import (
	"bufio"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// byeRecorder wraps each worker session's server transport and records
// the type of the last message the server sent on it, by worker name.
type byeRecorder struct {
	mu   sync.Mutex
	last map[string]engine.Msg
}

func (r *byeRecorder) wrap(name string, tr engine.Transport) engine.Transport {
	return &recordingTransport{Transport: tr, name: name, rec: r}
}

type recordingTransport struct {
	engine.Transport
	name string
	rec  *byeRecorder
}

func (t *recordingTransport) Send(m engine.Msg) error {
	_, bye := m.(engine.Bye)
	err := t.Transport.Send(m)
	if err == nil {
		t.rec.mu.Lock()
		if bye {
			t.rec.last[t.name] = engine.Bye{}
		} else {
			t.rec.last[t.name] = nil
		}
		t.rec.mu.Unlock()
	}
	return err
}

// launch runs C ← C + A·B as a one-job cluster over loopback TCP — the
// path mwmaster and matmul.ServeTCP take — with n cluster workers at
// the given chunk side µ, staging depth and cores; prefetch maps to two
// slots. Heartbeats and expiry sweeps are on. It pins the teardown
// rule: ClusterServer.RunJob closes the cluster and then the server
// after Wait, every RunClusterWorker must return nil, and Bye must be
// the last frame each worker received.
func launch(t *testing.T, c, a, b *matrix.Blocked, n, mu, stage int, prefetch bool, cores int) cluster.JobRun {
	t.Helper()
	rec := &byeRecorder{last: make(map[string]engine.Msg)}
	cl := cluster.New(cluster.Config{})
	srv, err := ServeCluster(cl, ClusterServerConfig{
		Addr: "127.0.0.1:0", ExpiryEvery: 20 * time.Millisecond, WrapTransport: rec.wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := 1
	if prefetch {
		slots = 2
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := RunClusterWorker(ClusterWorkerConfig{
				Addr: srv.Addr(), Memory: 100, StageCap: stage, Slots: slots, Cores: cores,
				HeartbeatEvery: 5 * time.Millisecond, Timeout: 30 * time.Second,
			})
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	run, err := srv.RunJob(n, cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: mu})
	wg.Wait()
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.last) != n {
		t.Fatalf("%d worker sessions recorded, want %d", len(rec.last), n)
	}
	for name, m := range rec.last {
		if _, ok := m.(engine.Bye); !ok {
			t.Fatalf("worker %s: last frame received was not Bye", name)
		}
	}
	return run
}

func build(t *testing.T, r, tt, s, q int) (a, b, c, want *matrix.Blocked) {
	t.Helper()
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, 11)
	matrix.DeterministicFill(bd, 12)
	matrix.DeterministicFill(cd, 13)
	ref := cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(ad, q), matrix.Partition(bd, q),
		matrix.Partition(cd, q), matrix.Partition(ref, q)
}

func TestDistributedSingleWorker(t *testing.T) {
	a, b, c, want := build(t, 4, 3, 4, 8)
	run := launch(t, c, a, b, 1, 2, 2, false, 1)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	if run.Status.Comm.BlocksShipped == 0 {
		t.Fatal("no blocks accounted")
	}
}

func TestDistributedThreeWorkers(t *testing.T) {
	a, b, c, want := build(t, 6, 4, 9, 4)
	run := launch(t, c, a, b, 3, 2, 2, false, 1)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	// All three registered and served to the end; demand-driven dispatch
	// may leave a late joiner without a task on a job this small.
	if n := len(run.Workers); n != 3 {
		t.Fatalf("enrolled %d", n)
	}
	done := 0
	for _, w := range run.Workers {
		done += w.Done
	}
	if done != run.Status.TasksTotal {
		t.Fatalf("workers did %d tasks, job has %d", done, run.Status.TasksTotal)
	}
}

func TestDistributedRaggedNoOverlap(t *testing.T) {
	a, b, c, want := build(t, 5, 2, 7, 4)
	launch(t, c, a, b, 2, 3, 1, false, 1)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
}

// TestDistributedPipelined drives the prefetching (two-slot), multi-core
// worker pipeline: tasks double-buffer over the socket while the kernel
// shards updates across goroutines. The result must equal the oracle
// exactly (same accumulation order as the sequential kernel).
func TestDistributedPipelined(t *testing.T) {
	a, b, c, want := build(t, 6, 4, 9, 4)
	run := launch(t, c, a, b, 2, 2, 2, true, 4)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	if run.Status.Comm.BlocksShipped == 0 {
		t.Fatal("no blocks accounted")
	}
	// single worker with prefetch drains the whole pool alone
	a2, b2, c2, want2 := build(t, 5, 2, 7, 4)
	launch(t, c2, a2, b2, 1, 3, 1, true, 2)
	if !c2.Equal(want2, 1e-9) {
		t.Fatal("wrong product (single prefetching worker)")
	}
}

// TestOneJobTeardownByeIsLastFrame is the teardown regression test of
// the one remaining master: three pipelined workers (two slots, two
// staged sets, heartbeats on) finish a one-job cluster, the cluster and
// then the server close, and every worker must exit nil with Bye as the
// last frame it received — no worker may see its peer hang up on a
// request or result write still in flight.
func TestOneJobTeardownByeIsLastFrame(t *testing.T) {
	for i := 0; i < 5; i++ {
		a, b, c, want := build(t, 6, 4, 9, 4)
		launch(t, c, a, b, 3, 2, 2, true, 1)
		if !c.Equal(want, 1e-9) {
			t.Fatal("wrong product")
		}
	}
}

func TestServeValidation(t *testing.T) {
	a, b, c, _ := build(t, 2, 2, 2, 4)
	bad := matrix.NewBlocked(3, 3, 4)
	for _, tc := range []struct {
		name    string
		workers int
		spec    cluster.JobSpec
	}{
		{"no workers", 0, cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: 1}},
		{"µ=0", 1, cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: 0}},
		{"shape mismatch", 1, cluster.JobSpec{Kind: cluster.MatMul, C: c, A: bad, B: b, Mu: 1}},
	} {
		srv, err := ServeCluster(cluster.New(cluster.Config{}), ClusterServerConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.RunJob(tc.workers, tc.spec); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

// TestMasterSurvivesShortResult registers a hand-rolled worker that
// answers its first task with a malformed (3-byte) MsgTaskResult: the
// server must drop that session and requeue the task, not panic on the
// undersized payload, and a real worker then finishes the job.
func TestMasterSurvivesShortResult(t *testing.T) {
	a, b, c, want := build(t, 2, 2, 2, 4)
	cl, srv := startCluster(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ri := RegisterInfo{Name: "short", Mem: 100, Slots: 1}
	if err := writeMsg(conn, MsgRegister, ri.encode()); err != nil {
		t.Fatal(err)
	}
	waitCond(t, cl, "hand-rolled worker registered", func() bool { return cl.ClusterStats().WorkersAlive == 1 })
	id, err := cl.SubmitJob(cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for {
		mt, _, err := readMsg(r)
		if err != nil {
			t.Fatal(err)
		}
		if mt == MsgTask {
			break
		}
	}
	if err := writeMsg(conn, MsgTaskResult, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, cl, "short-result session dropped", func() bool { return cl.ClusterStats().WorkersLost == 1 })
	honest := make(chan error, 1)
	go func() {
		_, err := RunClusterWorker(ClusterWorkerConfig{Addr: srv.Addr(), Name: "honest", Memory: 100})
		honest <- err
	}()
	st, err := cl.Wait(id)
	if err != nil || st.State != cluster.Done {
		t.Fatalf("job after a short result: %+v %v", st, err)
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	if rq := cl.ClusterStats().Requeues; rq < 1 {
		t.Fatalf("requeues = %d, want the short-result task requeued", rq)
	}
	cl.Close()
	srv.Close()
	if err := <-honest; err != nil {
		t.Fatalf("honest worker: %v", err)
	}
}

// TestRetiredMsgTypesRejected pins the reserved wire values of the
// retired single-job dialect: a frame of type 1 (hello), 2 (chunk) or 4
// (result), or a MsgReq of kind 0 (chunk) or 2 (result pickup), from a
// worker is rejected as unexpected — and so are retired types the other
// way, from a server to a cluster worker.
func TestRetiredMsgTypesRejected(t *testing.T) {
	frames := []struct {
		t       MsgType
		payload []byte
	}{
		{1, []byte{64, 0, 0, 0}},
		{2, make([]byte, 32)},
		{4, make([]byte, 8)},
		{MsgReq, []byte{0}},
		{MsgReq, []byte{2}},
	}
	for _, f := range frames {
		server, worker := net.Pipe()
		go writeMsg(worker, f.t, f.payload)
		tr := NewServerTransport(server, nil, func() error { return nil })
		if m, err := tr.Recv(); err == nil {
			t.Fatalf("server accepted retired frame type %d payload %v as %T", f.t, f.payload, m)
		}
		server.Close()
		worker.Close()
	}
	for _, mt := range []MsgType{1, 2, 4} {
		server, worker := net.Pipe()
		go writeMsg(server, mt, make([]byte, 40))
		tr := NewClusterWorkerTransport(worker, nil)
		if m, err := tr.Recv(); err == nil {
			t.Fatalf("worker accepted retired frame type %d as %T", mt, m)
		}
		server.Close()
		worker.Close()
	}
}

func TestWorkerDialError(t *testing.T) {
	if _, err := RunClusterWorker(ClusterWorkerConfig{Addr: "127.0.0.1:1", Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestFloatsRoundTrip: a blocked matrix encoded the way clients and
// the server put it on the wire decodes bit-exact through
// decodeBlocked, and a payload one element short is refused.
func TestFloatsRoundTrip(t *testing.T) {
	in := []float64{0, 1, -2.5, 3.14159, -1e300, math.Copysign(0, -1), math.Inf(1), 5e-324}
	src := matrix.NewBlocked(1, 2, 2)
	copy(src.Blocks[0].Data, in[:4])
	copy(src.Blocks[1].Data, in[4:])
	buf := src.AppendFloats(nil)
	out, rest, err := decodeBlocked(buf, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatal("leftover bytes")
	}
	for b := range src.Blocks {
		for i, v := range src.Blocks[b].Data {
			if math.Float64bits(v) != math.Float64bits(out.Blocks[b].Data[i]) {
				t.Fatalf("block %d float %d: %v != %v", b, i, v, out.Blocks[b].Data[i])
			}
		}
	}
	if _, _, err := decodeBlocked(buf[:len(buf)-8], 1, 2, 2); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestReadMsgRejectsOversizedPayload(t *testing.T) {
	// a corrupted length prefix must not provoke a giant allocation
	var buf [5]byte
	buf[0] = byte(MsgTask)
	buf[1] = 0xff
	buf[2] = 0xff
	buf[3] = 0xff
	buf[4] = 0x7f
	if _, _, err := readMsg(bytesReader(buf[:])); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// bytesReader avoids importing bytes for one call site.
type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, errEOF{}
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

type errEOF struct{}

func (errEOF) Error() string { return "EOF" }

func bytesReader(b []byte) *sliceReader { return &sliceReader{b: b} }
