package netmw

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// ClusterServerConfig configures the TCP face of a cluster service.
type ClusterServerConfig struct {
	Addr string // listen address (":0" for tests)
	// ExpiryEvery is the cadence of heartbeat-expiry sweeps; 0 disables
	// them (connection drops still trigger immediate recovery, which is
	// what deterministic tests rely on).
	ExpiryEvery time.Duration
	// MaxSlots clamps the per-worker pipelining depth a worker may
	// advertise at registration; 0 means no clamp.
	MaxSlots int
	// WrapTransport, when set, wraps every worker session's transport —
	// the fault-injection seam. The wrapper sees the same engine messages
	// the feeder exchanges with the worker, keyed by the worker's
	// registered name so a test can target one machine's traffic; tests
	// use it to drop, delay, duplicate or corrupt on a seeded schedule.
	WrapTransport func(name string, tr engine.Transport) engine.Transport
}

// ClusterServer accepts cluster workers and job submissions over TCP and
// drives a cluster.Cluster. One connection is one role: a worker
// (MsgRegister first) or a submitting client (MsgSubmit first).
type ClusterServer struct {
	cl   *cluster.Cluster
	ln   net.Listener
	cfg  ClusterServerConfig
	pool *engine.BlockPool // the cluster's pool, shared by all sessions
	enc  *frameCache       // shared encode cache: broadcast blocks serialize once

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// ServeCluster starts the TCP service on cfg.Addr and returns immediately.
func ServeCluster(cl *cluster.Cluster, cfg ClusterServerConfig) (*ClusterServer, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("netmw: cluster listen: %w", err)
	}
	s := &ClusterServer{
		cl: cl, ln: ln, cfg: cfg,
		pool:  cl.BlockPool(),
		enc:   newFrameCache(),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.ExpiryEvery > 0 {
		s.wg.Add(1)
		go s.expiryLoop()
	}
	return s, nil
}

// RegisterTimeout bounds how long RunJob waits for its workers to
// register.
const RegisterTimeout = 2 * time.Minute

// RunJob runs spec as the only job of the server's cluster: it waits
// until workers workers have registered (at most RegisterTimeout),
// submits the job and waits for it, then closes the cluster and then
// the server — the teardown order in which every worker session drains
// its in-flight tasks and receives Bye as its last frame. A job that
// failed returns its error.
func (s *ClusterServer) RunJob(workers int, spec cluster.JobSpec) (cluster.JobRun, error) {
	err := s.awaitWorkers(workers, spec)
	var id cluster.JobID
	start := time.Now()
	if err == nil {
		if id, err = s.cl.SubmitJob(spec); err == nil {
			_, err = s.cl.Wait(id)
		}
	}
	elapsed := time.Since(start)
	s.cl.Close()
	s.Close()
	if err != nil {
		return cluster.JobRun{}, err
	}
	return s.cl.RunOf(id, elapsed)
}

// awaitWorkers validates a one-job run, then waits for its workers.
func (s *ClusterServer) awaitWorkers(workers int, spec cluster.JobSpec) error {
	if workers < 1 {
		return fmt.Errorf("netmw: need at least one worker")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	deadline := time.Now().Add(RegisterTimeout)
	for s.cl.ClusterStats().WorkersAlive < workers {
		if time.Now().After(deadline) {
			return fmt.Errorf("netmw: %d of %d workers registered within %v",
				s.cl.ClusterStats().WorkersAlive, workers, RegisterTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// Addr returns the bound listen address.
func (s *ClusterServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and shuts the sessions down. When the underlying
// cluster was closed first (the graceful order), worker sessions exit on
// their own after sending Bye; Close gives them a short drain window
// before force-closing whatever connections remain, so workers see a
// clean goodbye instead of a reset and don't burn their reconnect budget.
// The cluster itself is left to its owner.
func (s *ClusterServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	err := s.ln.Close()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *ClusterServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *ClusterServer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

func (s *ClusterServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

func (s *ClusterServer) expiryLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.ExpiryEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.cl.CheckExpiry()
		}
	}
}

// handle dispatches one connection by its first message.
func (s *ClusterServer) handle(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 1<<20)
	w := bufio.NewWriterSize(conn, 1<<20)
	t, payload, err := readMsg(r)
	if err != nil {
		return
	}
	switch t {
	case MsgRegister:
		var ri RegisterInfo
		if err := ri.decode(payload); err != nil {
			return
		}
		s.workerSession(conn, r, w, ri)
	case MsgSubmit:
		s.clientSession(w, payload)
	}
}

// workerSession drives one registered worker through the engine's
// feeder: the transport frames tasks/sets/results and consumes
// heartbeats, engine.RunFeeder keeps up to the worker's advertised
// Slots tasks in flight and routes set requests to the oldest
// incomplete task, and cluster.EngineFeed (shared with the in-process
// local worker) bridges to the scheduler. A connection error at any
// point declares the worker lost, which requeues every task it held.
func (s *ClusterServer) workerSession(conn net.Conn, r *bufio.Reader, w *bufio.Writer, ri RegisterInfo) {
	id := ri.Name
	slots := int(ri.Slots)
	if slots < 1 {
		slots = 1
	}
	if s.cfg.MaxSlots > 0 && slots > s.cfg.MaxSlots {
		slots = s.cfg.MaxSlots
	}
	// The epoch pins every cluster call of this session to this
	// incarnation: once the worker re-registers (reconnect), a lingering
	// old session can neither pull tasks for the new incarnation nor
	// declare it lost during teardown.
	epoch, err := s.cl.JoinWorker(id, int(ri.Mem), slots)
	if err != nil {
		return
	}
	feed := cluster.NewEngineFeed(s.cl, id, epoch)
	// RunFeeder's reader calls feed.Lost the moment the connection dies;
	// the deferred call covers feeder-side exits (protocol violations)
	// and is a no-op once the incarnation is already gone.
	defer feed.Lost()
	tr := newServerTransport(conn, r, w, s.pool, s.enc, func() error { return s.cl.Heartbeat(id) })
	var link engine.Transport = tr
	if s.cfg.WrapTransport != nil {
		link = s.cfg.WrapTransport(id, tr)
	}
	began := time.Now()
	fstats, ferr := engine.RunFeeder(link, feed, engine.FeederConfig{
		Slots: slots, Pool: s.pool, Mem: int(ri.Mem),
	})
	// A checksum mismatch on this worker's bulk payloads is transport
	// corruption, not a compute fault: record it against the connection
	// (suspicion, not strikes) and let the reconnect/requeue machinery
	// resend the work. Freivalds failures on CRC-clean tiles are what
	// strike the worker.
	if errors.Is(ferr, ErrPayloadCRC) {
		s.cl.ReportTransportFault(id)
	}
	// Fold the session's delta accounting into the worker and job
	// totals for the server's status output. The epoch pin keeps a stale
	// session's exit report from landing on the session counters of the
	// incarnation that replaced it (lifetime totals still accumulate —
	// they are per worker name).
	s.cl.ReportCommEpoch(id, epoch, fstats)
	// Fold the connection's byte counters into the worker's wire totals
	// and its bandwidth profile. One report per session, at teardown, so
	// reconnects never double-count a byte.
	ws := tr.Stats()
	s.cl.ReportWireEpoch(id, epoch, ws.BytesOut, ws.BytesIn, time.Since(began))
}

// clientSession serves one MsgSubmit: build the job, run it to
// completion, answer with the result blocks or the error. A keyed
// submission is idempotent: when the key names an already-accepted job
// (including one recovered from the journal after a restart) the session
// attaches to it instead of starting a duplicate, and the reply carries
// the canonical result held by the cluster — not the freshly decoded
// operands of this resubmission.
func (s *ClusterServer) clientSession(w *bufio.Writer, payload []byte) {
	// A reply's header and body share one buffer sized up front: the
	// result is appended straight behind the header, never built apart
	// and copied.
	header := func(job cluster.JobID, code uint32, bodyLen int) []byte {
		out := make([]byte, jobDoneHeaderLen, jobDoneHeaderLen+bodyLen)
		(&JobDoneHeader{Job: uint32(job), Code: code}).encode(out)
		return out
	}
	send := func(out []byte) {
		if writeMsg(w, MsgJobDone, out) == nil {
			w.Flush()
		}
	}
	fail := func(job cluster.JobID, err error) {
		msg := err.Error()
		send(append(header(job, 1, len(msg)), msg...))
	}
	spec, key, err := decodeJobSubmission(payload)
	if err != nil {
		fail(0, err)
		return
	}
	id, _, err := s.cl.SubmitJobKeyed(key, spec)
	if err != nil {
		// A master going down hangs up instead of answering: a definitive
		// job-failure reply would stop a durable client's retry loop, but
		// shutdown is exactly the transient fault that loop exists for.
		// The journal preserves the job; the resubmitted key resumes it.
		if !errors.Is(err, cluster.ErrClosed) {
			fail(0, err)
		}
		return
	}
	done, err := s.cl.Done(id)
	if err != nil {
		fail(id, err)
		return
	}
	select {
	case <-done:
	case <-s.stop:
		return // shutting down: hang up, the client retries elsewhere
	}
	res, err := s.cl.JobResult(id)
	if err != nil {
		if !errors.Is(err, cluster.ErrClosed) {
			fail(id, err)
		}
		return
	}
	send(res.AppendFloats(header(id, 0, res.Bytes())))
}

// decodeJobSubmission parses a MsgSubmit payload into a JobSpec backed by
// freshly allocated matrices, plus the client's idempotency key.
func decodeJobSubmission(payload []byte) (cluster.JobSpec, uint64, error) {
	var hdr JobHeader
	if err := hdr.decode(payload); err != nil {
		return cluster.JobSpec{}, 0, err
	}
	rest := payload[jobHeaderLen:]
	r, t, sd, q := int(hdr.R), int(hdr.T), int(hdr.S), int(hdr.Q)
	if r < 1 || t < 1 || sd < 1 || q < 1 ||
		r > maxWireDim || t > maxWireDim || sd > maxWireDim || q > maxWireDim {
		return cluster.JobSpec{}, 0, fmt.Errorf("netmw: bad job dimensions %dx%dx%d q=%d", r, t, sd, q)
	}
	// Size the declared operands before allocating them: a hostile
	// header must not provoke matrix allocations for bytes that never
	// arrived. Each per-operand product is ≤ 2³⁰·2³³ = 2⁶³ (maxWireDim
	// bounds every factor), so it cannot wrap uint64 on its own; each is
	// checked against the payload length before entering the sum, which
	// keeps the sum far below overflow too.
	perBlock := uint64(q) * uint64(q) * 8
	var operands []uint64
	switch hdr.Kind {
	case WireMatMul:
		operands = []uint64{uint64(r) * uint64(sd), uint64(r) * uint64(t), uint64(t) * uint64(sd)}
	case WireLU:
		operands = []uint64{uint64(r) * uint64(r)}
	default:
		return cluster.JobSpec{}, 0, fmt.Errorf("netmw: unknown job kind %d", hdr.Kind)
	}
	var need uint64
	for _, nblocks := range operands {
		sz := nblocks * perBlock
		need += sz
		if sz > uint64(len(rest)) || need > uint64(len(rest)) {
			return cluster.JobSpec{}, 0, fmt.Errorf("netmw: job payload %d bytes, need %d", len(rest), need)
		}
	}
	switch hdr.Kind {
	case WireMatMul:
		var c, a, b *matrix.Blocked
		var err error
		if c, rest, err = decodeBlocked(rest, r, sd, q); err != nil {
			return cluster.JobSpec{}, 0, err
		}
		if a, rest, err = decodeBlocked(rest, r, t, q); err != nil {
			return cluster.JobSpec{}, 0, err
		}
		if b, _, err = decodeBlocked(rest, t, sd, q); err != nil {
			return cluster.JobSpec{}, 0, err
		}
		return cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: int(hdr.Mu)}, hdr.Key, nil
	case WireLU:
		m, _, err := decodeBlocked(rest, r, r, q)
		if err != nil {
			return cluster.JobSpec{}, 0, err
		}
		return cluster.JobSpec{Kind: cluster.LU, M: m, Mu: int(hdr.Mu)}, hdr.Key, nil
	default:
		return cluster.JobSpec{}, 0, fmt.Errorf("netmw: unknown job kind %d", hdr.Kind)
	}
}

// decodeBlocked reads br×bc blocks of q² doubles straight into a new
// matrix, returning it and the remaining bytes.
func decodeBlocked(buf []byte, br, bc, q int) (*matrix.Blocked, []byte, error) {
	m := matrix.NewBlocked(br, bc, q)
	rest, err := m.ReadFloats(buf)
	if err != nil {
		return nil, nil, err
	}
	return m, rest, nil
}
