package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/netmw"
	"repro/internal/sim"
)

// tiny returns a workload's shape at a size the tests can run in well
// under a second per round.
func tiny(name string) workload {
	w, ok := findWorkload(name)
	if !ok {
		panic("unknown workload " + name)
	}
	switch w.kind {
	case cluster.LU:
		w.n, w.q, w.mu = 192, 32, 2
	default:
		w.n, w.q, w.mu = 128, 32, 2
	}
	w.inputs = min(w.inputs, 2)
	return w
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program runs %d", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the program's is %q", i, names[i], w.name)
		}
	}
	return endToEnd, perLayer
}

// TestSmokeEveryWorkload runs each workload at a tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted,
// finite, with its declared unit, and nothing else.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := endToEnd
				if traced {
					want = perLayer
				}
				cfg := config{wl: tiny(w.name), seed: 3, window: 300 * time.Millisecond, traced: traced, workDir: t.TempDir()}
				if traced {
					cfg.traceDir = t.TempDir()
				}
				res, err := measure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d jobs failed: %v", traced, res.failed, res.attempted, res.notes)
				}
				got := map[string]bool{}
				for _, m := range res.metrics {
					if unit, ok := want[m.name]; !ok || unit != m.unit {
						t.Errorf("traced=%v: metric %s [%s] is not declared with that unit", traced, m.name, m.unit)
					}
					if m.value != m.value || m.value > 1e300 || m.value < -1e300 {
						t.Errorf("traced=%v: metric %s = %v", traced, m.name, m.value)
					}
					got[m.name] = true
				}
				for name := range want {
					if !got[name] {
						t.Errorf("traced=%v: metric %s not emitted", traced, name)
					}
				}
				if traced {
					for _, f := range []string{"spans.csv", "gantt.csv", "gantt.svg"} {
						if fi, err := os.Stat(cfg.traceDir + "/" + f); err != nil || fi.Size() == 0 {
							t.Errorf("trace file %s missing or empty: %v", f, err)
						}
					}
				}
			}
		})
	}
}

// TestCorruptWorkerRaisesFailed injects a worker whose every result is
// corrupted after the wire checksum: the service's verification refuses
// those tiles and quarantines the worker, and the run must count it.
func TestCorruptWorkerRaisesFailed(t *testing.T) {
	cfg := config{
		wl: tiny("small-jobs"), seed: 5, window: 300 * time.Millisecond, workDir: t.TempDir(),
		wrap: func(name string, tr engine.Transport) engine.Transport {
			if name != "w1" {
				return tr
			}
			return netmw.NewFaultTransport(tr, sim.NewFaultPlan(sim.FaultConfig{Seed: 1, CorruptResultProb: 1}))
		},
	}
	res, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatalf("a corrupting worker went uncounted: %d attempted, 0 failed", res.attempted)
	}
}

// TestWrongResultRaisesFailed makes the client's reference for one
// input disagree with the service by one bit: every job of that input
// must count as failed.
func TestWrongResultRaisesFailed(t *testing.T) {
	cfg := config{wl: tiny("small-jobs"), seed: 7, window: 300 * time.Millisecond, workDir: t.TempDir()}
	ins := makeInputs(cfg.wl, cfg.seed)
	ins[1].want.Blocks[0].Data[0] += 1 // input 0 is the warm-up's, which must pass
	r, err := runRound(cfg, ins, nil, 0, cfg.window)
	if err != nil {
		t.Fatal(err)
	}
	var wrong int
	for _, s := range r.samples {
		if s.key%2 == 1 {
			wrong++
		}
	}
	attempted, failed, _ := failures([]*round{r})
	if wrong == 0 || failed != wrong {
		t.Fatalf("%d jobs ran the corrupted input, %d of %d counted failed", wrong, failed, attempted)
	}
}

// takingTransport behaves like a transport that owns what it is sent:
// right after Send returns, another goroutine scribbles over the
// message and its blocks. Under -race, a wrapper that reads a message
// after delegating Send races with that goroutine.
type takingTransport struct {
	wg   sync.WaitGroup
	recv chan engine.Msg
}

func (t *takingTransport) Send(m engine.Msg) error {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		switch m := m.(type) {
		case *engine.Assign:
			for _, b := range m.Blocks {
				b[0] = -1
			}
			m.ID, m.Steps = engine.AssignID{}, -1
		case *engine.Set:
			for _, b := range m.A {
				if b != nil {
					b[0] = -1
				}
			}
			m.K = -1
		}
	}()
	return nil
}

func (t *takingTransport) Recv() (engine.Msg, error) {
	m, ok := <-t.recv
	if !ok {
		return nil, engine.ErrClosed
	}
	return m, nil
}

func (t *takingTransport) Close() error { return nil }

// TestTracedLinkOwnership drives the traced transport wrapper from two
// goroutines, as the feeder does, over a transport that takes ownership
// of every sent message. The wrapper must read what it records before
// delegating Send, and keep no block buffer once the messages are gone.
func TestTracedLinkOwnership(t *testing.T) {
	rec := newRecorder()
	inner := &takingTransport{recv: make(chan engine.Msg, 8)}
	link := rec.wrap("w1", inner)
	rec.begin(time.Now())

	var freed atomic.Int64
	block := func() []float64 {
		b := new([16]float64)
		runtime.SetFinalizer(b, func(*[16]float64) { freed.Add(1) })
		return b[:]
	}
	const jobs = 4
	id := func(j int) engine.AssignID { return engine.AssignID{A: uint32(10 + j), B: 1, C: 1} }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the dispatcher: assignments
		defer wg.Done()
		for j := 0; j < jobs; j++ {
			if err := link.Send(&engine.Assign{ID: id(j), Steps: 2, Blocks: [][]float64{block()}}); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { // the event loop: sets, each with one payload and one cached slot
		defer wg.Done()
		for k := 0; k < 2*jobs; k++ {
			if err := link.Send(&engine.Set{K: k % 2, A: [][]float64{block(), nil}, B: [][]float64{nil}}); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	for j := 0; j < jobs; j++ {
		inner.recv <- &engine.Result{ID: id(j), Updates: 2, ComputeNS: 1000}
		if _, err := link.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	rec.end(time.Now())
	inner.wg.Wait()

	c := rec.counts()
	if c.sets != 2*jobs || c.blocksMoved != 3*jobs || c.updates != 2*jobs || len(c.execMS) != jobs {
		t.Fatalf("recorded sets=%d blocks=%d updates=%d jobs=%d; want %d, %d, %d, %d",
			c.sets, c.blocksMoved, c.updates, len(c.execMS), 2*jobs, 3*jobs, 2*jobs, jobs)
	}
	const total = 3 * jobs // one block per assignment, one per set
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < total && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := freed.Load(); n < total {
		t.Fatalf("%d of %d block buffers still reachable after the messages were dropped", total-n, total)
	}
	runtime.KeepAlive(link)
	runtime.KeepAlive(rec)
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		value float64
		label string
	}{
		{1000, 990, "p99"},
		{200, 190, "p95"},
		{100, 90, "p90"},
		{99, 50, "p50: under 100 samples, no tail percentile resolved"},
	} {
		v, l := tail(seq(tc.n))
		if v != tc.value || l != tc.label {
			t.Errorf("tail of 1..%d = %v (%s), want %v (%s)", tc.n, v, l, tc.value, tc.label)
		}
	}
}
