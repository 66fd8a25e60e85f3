// Conformance suite: one table of lifecycle, ordering, prefetch,
// staging and kill-mid-chunk cases, executed against BOTH transports —
// the in-process channel pipe (engine.Pipe) and the TCP framing of the
// cluster dialect (internal/netmw's server and worker transports) — so
// the two can never drift apart: any behavioral difference between "the
// same engine over channels" and "the same engine over sockets" fails
// here first. Every case drives RunFeeder sessions from a test-local
// chunk-list Feed, the one master the repository has.
package engine_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/homog"
	"repro/internal/matrix"
	"repro/internal/netmw"
	"repro/internal/sim"
)

// transportFleet abstracts "n connected master/worker transport pairs"
// over the two implementations.
type transportFleet func(t *testing.T, n int, pool *engine.BlockPool) (masters, workers []engine.Transport)

func pipeFleet(t *testing.T, n int, pool *engine.BlockPool) (masters, workers []engine.Transport) {
	t.Helper()
	for i := 0; i < n; i++ {
		m, w := engine.Pipe()
		masters = append(masters, m)
		workers = append(workers, w)
	}
	return masters, workers
}

func tcpFleet(t *testing.T, n int, pool *engine.BlockPool) (masters, workers []engine.Transport) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, n)
	go func() {
		for i := 0; i < n; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, netmw.NewClusterWorkerTransport(conn, pool))
		masters = append(masters, netmw.NewServerTransport(<-accepted, pool, func() error { return nil }))
	}
	return masters, workers
}

var fleets = []struct {
	name  string
	build transportFleet
}{
	{"channel", pipeFleet},
	{"tcp", tcpFleet},
}

// buildInputs creates deterministic A, B, C and the expected C + A·B.
func buildInputs(t *testing.T, r, tt, s, q int) (a, b, c, want *matrix.Blocked) {
	t.Helper()
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, 21)
	matrix.DeterministicFill(bd, 22)
	matrix.DeterministicFill(cd, 23)
	ref := cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(ad, q), matrix.Partition(bd, q),
		matrix.Partition(cd, q), matrix.Partition(ref, q)
}

// errRunFailed ends the sessions of a chunk run that lost a worker: the
// chunk-list feed has no recovery, so one loss fails the whole run.
var errRunFailed = errors.New("chunk feed: a worker was lost")

// chunkRun is the shared state of one multiply driven by chunkFeeds:
// the chunk pool, dispensed per session in PickChunk order, and the
// count of chunks whose results are not yet committed into C. hold is
// how many chunks the first session takes before any other session is
// served, so a doomed first worker surely receives the assignment it
// dies on however the goroutines are scheduled.
type chunkRun struct {
	mu       sync.Mutex
	cond     *sync.Cond
	c, a, b  *matrix.Blocked
	pool     []*sim.Chunk
	left     int
	hold     int
	failed   bool
	resident bool
	bp       *engine.BlockPool
	sessions int
}

func newChunkRun(c, a, b *matrix.Blocked, mu int, resident bool, bp *engine.BlockPool) *chunkRun {
	_, chunks := homog.ChunkGrid(core.Problem{R: c.BR, S: c.BC, T: a.BC, Q: c.Q}, mu)
	r := &chunkRun{c: c, a: a, b: b, pool: chunks, left: len(chunks), resident: resident, bp: bp}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// chunkFeed is one worker session's Feed (and ResidentFeed) over a
// chunkRun. Assignments are job 0 with the chunk ID as their sequence
// number. A resident session keeps every acked tile dirty until the pool
// is drained and its in-flight chunks are acked, then asks for one
// flush.
type chunkFeed struct {
	run      *chunkRun
	first    bool
	last     *sim.Chunk
	out      map[uint32]*sim.Chunk // sent, not yet completed or acked
	dirty    map[uint64]bool       // acked C blocks awaiting the flush
	acked    int                   // acked chunks awaiting the flush
	flushing bool
	lost     int
}

func (r *chunkRun) feed() *chunkFeed {
	r.sessions++
	return &chunkFeed{run: r, first: r.sessions == 1,
		out: make(map[uint32]*sim.Chunk), dirty: make(map[uint64]bool)}
}

func (f *chunkFeed) Next() (*engine.Assign, error) {
	r := f.run
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		switch {
		case f.lost > 0 || r.failed:
			return nil, errRunFailed
		case len(r.pool) > 0 && (f.first || r.hold == 0):
			if f.first && r.hold > 0 {
				r.hold--
				r.cond.Broadcast()
			}
			idx := engine.PickChunk(r.pool, f.last)
			ch := r.pool[idx]
			r.pool = append(r.pool[:idx], r.pool[idx+1:]...)
			f.last = ch
			f.out[uint32(ch.ID)] = ch
			return r.assign(ch), nil
		case len(f.out) == 0 && len(f.dirty) > 0 && !f.flushing:
			f.flushing = true
			return nil, engine.ErrFlushWanted
		case r.left == 0:
			return nil, engine.ErrFeedDone
		}
		r.cond.Wait()
	}
}

// assign materializes a chunk's C tile as owned pooled copies; resident
// runs flag all-zero blocks CZero and ship only the rest.
func (r *chunkRun) assign(ch *sim.Chunk) *engine.Assign {
	as := r.bp.GetAssign()
	as.ID = engine.AssignID{B: uint32(ch.ID)}
	as.I0, as.J0 = ch.I0, ch.J0
	as.Rows, as.Cols, as.Q, as.Steps = ch.Rows, ch.Cols, r.c.Q, len(ch.Steps)
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			src := r.c.Block(ch.I0+i, ch.J0+j).Data
			if r.resident {
				if engine.AllZeroBits(src) {
					as.CFlags = append(as.CFlags, engine.CZero)
					continue
				}
				as.CFlags = append(as.CFlags, engine.CShip)
			}
			as.Blocks = append(as.Blocks, r.bp.GetCopy(src))
		}
	}
	as.Owned = true
	return as
}

func (f *chunkFeed) Set(id engine.AssignID, k int) (*engine.Set, error) {
	r := f.run
	r.mu.Lock()
	ch := f.out[id.B]
	r.mu.Unlock()
	if ch == nil {
		return nil, fmt.Errorf("chunk feed: set for unknown assignment %v", id)
	}
	set := r.bp.GetSet()
	set.K = k
	for i := 0; i < ch.Rows; i++ {
		set.A = append(set.A, r.a.Block(ch.I0+i, k).Data)
	}
	for j := 0; j < ch.Cols; j++ {
		set.B = append(set.B, r.b.Block(k, ch.J0+j).Data)
	}
	engine.StampIDs(set, 0, ch, k)
	return set, nil
}

func (f *chunkFeed) Complete(id engine.AssignID, blocks [][]float64) error {
	r := f.run
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := f.out[id.B]
	if ch == nil {
		return engine.ErrStaleResult
	}
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			copy(r.c.Block(ch.I0+i, ch.J0+j).Data, blocks[i*ch.Cols+j])
		}
	}
	delete(f.out, id.B)
	r.left--
	r.cond.Broadcast()
	return nil
}

func (f *chunkFeed) Acked(id engine.AssignID) error {
	r := f.run
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := f.out[id.B]
	if ch == nil {
		return engine.ErrStaleResult
	}
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			f.dirty[engine.CBlockID(0, ch.I0+i, ch.J0+j)] = true
		}
	}
	delete(f.out, id.B)
	f.acked++
	r.cond.Broadcast()
	return nil
}

func (f *chunkFeed) CommitFlush(ids []uint64, blocks [][]float64) error {
	r := f.run
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, id := range ids {
		_, i, j, ok := engine.CBlockCoords(id)
		if !ok || !f.dirty[id] {
			return fmt.Errorf("chunk feed: flushed block %#x was not dirty", id)
		}
		copy(r.c.Block(i, j).Data, blocks[n])
		delete(f.dirty, id)
	}
	if len(f.dirty) != 0 {
		return fmt.Errorf("chunk feed: flush left %d blocks dirty", len(f.dirty))
	}
	r.left -= f.acked
	f.acked, f.flushing = 0, false
	r.cond.Broadcast()
	return nil
}

func (f *chunkFeed) Lost() {
	r := f.run
	r.mu.Lock()
	defer r.mu.Unlock()
	f.lost++
	if r.left > 0 {
		r.failed = true
	}
	r.cond.Broadcast()
}

// engineRun is the outcome of one full multiply through the engine.
type engineRun struct {
	c, want    *matrix.Blocked
	reports    []engine.WorkerReport
	feederErrs []error
	feeds      []*chunkFeed
}

// runEngine drives one full multiply through one RunFeeder session and
// one RunWorker per worker over the given fleet, with µ = 2 chunks. The
// feeder keeps as many assignments in flight as the worker pipelines.
// Only worker 0 honors wcfg.FailAfter, and it is handed its first
// FailAfter+1 assignments before the other sessions start.
func runEngine(t *testing.T, fleet transportFleet, r, tt, s, q int, workers int,
	wcfg engine.WorkerConfig, pooled, resident bool) engineRun {
	t.Helper()
	a, b, c, want := buildInputs(t, r, tt, s, q)
	var pool *engine.BlockPool
	if pooled {
		pool = engine.NewBlockPool()
	}
	masters, workerEnds := fleet(t, workers, pool)
	run := newChunkRun(c, a, b, 2, resident, pool)
	if wcfg.FailAfter > 0 {
		run.hold = wcfg.FailAfter + 1
	}
	out := engineRun{c: c, want: want,
		reports: make([]engine.WorkerReport, workers), feederErrs: make([]error, workers)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		feed := run.feed()
		out.feeds = append(out.feeds, feed)
		cfg := wcfg
		cfg.Pool = pool
		if w != 0 {
			cfg.FailAfter = 0 // only worker 0 is doomed
		}
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			_, out.feederErrs[w] = engine.RunFeeder(masters[w], feed, engine.FeederConfig{Slots: cfg.Slots, Pool: pool})
		}(w)
		go func(w int) {
			defer wg.Done()
			out.reports[w], _ = engine.RunWorker(workerEnds[w], cfg)
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("engine run hung")
	}
	return out
}

// TestEngineConformance is the cross-transport table. Every case runs
// on the channel pipe and on TCP framing; lifecycle cases must produce
// the oracle product and the exact update count. In the kill cases the
// doomed worker vanishes holding its second assignment: its RunFeeder
// must return an error, every session's Feed.Lost must fire exactly
// once, and nothing may hang (the chunk-list feed has no recovery).
func TestEngineConformance(t *testing.T) {
	base := engine.WorkerConfig{StageCap: 1, Slots: 1, Cores: 1, PullSets: true}
	cases := []struct {
		name        string
		r, tt, s, q int
		workers     int
		mod         func(*engine.WorkerConfig)
		pooled      bool
		resident    bool
		wantErr     bool
	}{
		{name: "lifecycle-single-worker", r: 4, tt: 3, s: 4, q: 4, workers: 1, pooled: true},
		{name: "lifecycle-three-workers", r: 6, tt: 4, s: 9, q: 4, workers: 3, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.StageCap = 2 }},
		{name: "ordering-staged-sets", r: 5, tt: 6, s: 5, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.StageCap = 2 }},
		{name: "prefetch-double-buffer", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2; c.StageCap = 2 }},
		{name: "prefetch-single-worker-drains-pool", r: 5, tt: 2, s: 7, q: 4, workers: 1, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2 }},
		{name: "multicore-kernel", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Cores = 4; c.Slots = 2; c.StageCap = 2 }},
		{name: "ragged-chunks", r: 5, tt: 2, s: 7, q: 4, workers: 2, pooled: true},
		{name: "more-workers-than-chunks", r: 2, tt: 2, s: 2, q: 4, workers: 5, pooled: true},
		{name: "unpooled", r: 4, tt: 3, s: 4, q: 4, workers: 2, pooled: false,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2; c.StageCap = 2 }},
		// Two slots hand the doomed worker its second assignment up
		// front, so the kill fires on every run.
		{name: "kill-mid-chunk", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true, wantErr: true,
			mod: func(c *engine.WorkerConfig) { c.FailAfter = 1; c.Slots = 2 }},
		// The single-flush result path: C tiles stay resident on the
		// workers and come back once through flush manifests at job end.
		{name: "resident-single-worker", r: 4, tt: 3, s: 4, q: 4, workers: 1, pooled: true, resident: true},
		{name: "resident-three-workers", r: 6, tt: 4, s: 9, q: 4, workers: 3, pooled: true, resident: true,
			mod: func(c *engine.WorkerConfig) { c.StageCap = 2 }},
		{name: "resident-prefetch", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true, resident: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2; c.StageCap = 2 }},
		{name: "resident-unpooled", r: 4, tt: 3, s: 4, q: 4, workers: 2, pooled: false, resident: true},
		{name: "resident-kill-mid-chunk", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			resident: true, wantErr: true,
			mod: func(c *engine.WorkerConfig) { c.FailAfter = 1; c.Slots = 2 }},
	}
	for _, fl := range fleets {
		for _, tc := range cases {
			t.Run(fl.name+"/"+tc.name, func(t *testing.T) {
				wcfg := base
				if tc.mod != nil {
					tc.mod(&wcfg)
				}
				run := runEngine(t, fl.build, tc.r, tc.tt, tc.s, tc.q, tc.workers, wcfg, tc.pooled, tc.resident)
				for w, feed := range run.feeds {
					if feed.lost != 1 {
						t.Fatalf("session %d: Feed.Lost fired %d times, want exactly once", w, feed.lost)
					}
				}
				if tc.wantErr {
					if run.feederErrs[0] == nil {
						t.Fatal("doomed worker's RunFeeder returned nil")
					}
					return
				}
				for w, err := range run.feederErrs {
					if err != nil {
						t.Fatalf("session %d: RunFeeder: %v", w, err)
					}
				}
				if !run.c.Equal(run.want, 1e-9) {
					t.Fatal("wrong product")
				}
				var updates, flushed int64
				for _, rep := range run.reports {
					updates += rep.Updates
					flushed += rep.Flushed
				}
				if want := int64(tc.r) * int64(tc.tt) * int64(tc.s); updates != want {
					t.Fatalf("updates = %d, want %d", updates, want)
				}
				if tc.resident {
					// Every C tile flows back exactly once, through a flush.
					if want := int64(tc.r) * int64(tc.s); flushed != want {
						t.Fatalf("flushed = %d blocks, want every C tile once (%d)", flushed, want)
					}
				} else if flushed != 0 {
					t.Fatalf("dense run flushed %d blocks", flushed)
				}
			})
		}
	}
}

// TestEngineBitExactAcrossTransports pins the strongest invariant: the
// channel run, the TCP run, the pooled and the unpooled run, with dense
// per-chunk results or the resident single-flush path, all produce
// bit-identical floats (the engine fixes the accumulation order;
// transports only move bytes, and a flush commits the same serial FMA
// chain a dense result would have carried).
func TestEngineBitExactAcrossTransports(t *testing.T) {
	cfg := engine.WorkerConfig{StageCap: 2, Slots: 2, Cores: 2, PullSets: true}
	var results []*matrix.Dense
	for _, fl := range fleets {
		for _, pooled := range []bool{true, false} {
			for _, resident := range []bool{false, true} {
				run := runEngine(t, fl.build, 6, 4, 6, 4, 2, cfg, pooled, resident)
				for w, err := range run.feederErrs {
					if err != nil {
						t.Fatalf("%s pooled=%v resident=%v session %d: %v", fl.name, pooled, resident, w, err)
					}
				}
				results = append(results, run.c.Assemble())
			}
		}
	}
	first := results[0]
	for i, d := range results[1:] {
		for r := 0; r < first.Rows; r++ {
			for cc := 0; cc < first.Cols; cc++ {
				if first.At(r, cc) != d.At(r, cc) {
					t.Fatalf("run %d differs at (%d,%d): %g != %g", i+1, r, cc, d.At(r, cc), first.At(r, cc))
				}
			}
		}
	}
}

// TestFeederConformance drives one pipelined worker session at one and
// two slots over both transports: the product must match the oracle,
// the worker must serve every chunk, and the session must end with a
// clean Bye (RunFeeder and RunWorker both return nil).
func TestFeederConformance(t *testing.T) {
	for _, fl := range fleets {
		for _, slots := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/slots-%d", fl.name, slots), func(t *testing.T) {
				cfg := engine.WorkerConfig{StageCap: 2, Slots: slots, Cores: 2, PullSets: true}
				run := runEngine(t, fl.build, 6, 4, 6, 4, 1, cfg, true, false)
				if err := run.feederErrs[0]; err != nil {
					t.Fatalf("feeder: %v", err)
				}
				if !run.c.Equal(run.want, 1e-9) {
					t.Fatal("wrong product")
				}
				if got := run.reports[0].Assignments; got != 9 {
					t.Fatalf("worker served %d assignments, want 9", got)
				}
			})
		}
	}
}
