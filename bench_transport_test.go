package repro

import (
	"errors"
	"net"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/homog"
	"repro/internal/matrix"
	"repro/internal/netmw"
	"repro/internal/sim"
)

// transportBenchInputs builds one steady-state-heavy problem: few
// chunks, many update sets per chunk, so the per-message path dominates
// the per-connection and per-chunk overheads. With zeroC the initial C
// is all zeros (C = A·B), which lets the resident result path announce
// every C tile as a CZero flag instead of a downlink payload.
func transportBenchInputs(r, tt, s, q int, zeroC bool) (a, b, c0 *matrix.Blocked, want *matrix.Dense, chunks []*sim.Chunk) {
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, 41)
	matrix.DeterministicFill(bd, 42)
	if !zeroC {
		matrix.DeterministicFill(cd, 43)
	}
	want = cd.Clone()
	matrix.MulNaive(want, ad, bd)
	pr := core.Problem{R: r, S: s, T: tt, Q: q}
	_, chunks = homog.ChunkGrid(pr, 2)
	return matrix.Partition(ad, q), matrix.Partition(bd, q), matrix.Partition(cd, q), want, chunks
}

// copyBlocked copies src's coefficients into dst without allocating.
func copyBlocked(dst, src *matrix.Blocked) {
	for i := 0; i < src.BR; i++ {
		for j := 0; j < src.BC; j++ {
			copy(dst.Block(i, j).Data, src.Block(i, j).Data)
		}
	}
}

// byteCounter is implemented by the netmw transports: bytes written to
// the peer, i.e. the measured master egress when asserted on the
// master-side transport.
type byteCounter interface {
	BytesOut() int64
}

// benchFeed is a single-session chunk-list Feed (and ResidentFeed) for
// the transport benchmarks: it hands out chunks in engine.PickChunk
// order as job 0 with the chunk ID as sequence number, commits dense
// results and flushes into C and, on the resident path, asks for one
// flush once every chunk is acked.
type benchFeed struct {
	mu       sync.Mutex
	cond     *sync.Cond
	c, a, b  *matrix.Blocked
	pool     []*sim.Chunk
	bp       *engine.BlockPool
	resident bool
	last     *sim.Chunk
	out      map[uint32]*sim.Chunk
	left     int // chunks not yet committed into C
	acked    int // resident chunks awaiting the flush
	flushing bool
	lost     bool
}

func newBenchFeed(c, a, b *matrix.Blocked, chunks []*sim.Chunk, bp *engine.BlockPool, resident bool) *benchFeed {
	f := &benchFeed{c: c, a: a, b: b, pool: append([]*sim.Chunk(nil), chunks...), bp: bp,
		resident: resident, out: make(map[uint32]*sim.Chunk), left: len(chunks)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *benchFeed) Next() (*engine.Assign, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		switch {
		case f.lost:
			return nil, errors.New("bench feed: session lost")
		case len(f.pool) > 0:
			idx := engine.PickChunk(f.pool, f.last)
			ch := f.pool[idx]
			f.pool = append(f.pool[:idx], f.pool[idx+1:]...)
			f.last = ch
			f.out[uint32(ch.ID)] = ch
			return f.assign(ch), nil
		case len(f.out) == 0 && f.acked > 0 && !f.flushing:
			f.flushing = true
			return nil, engine.ErrFlushWanted
		case f.left == 0:
			return nil, engine.ErrFeedDone
		}
		f.cond.Wait()
	}
}

// assign materializes a chunk's C tile as owned pooled copies; resident
// runs flag all-zero blocks CZero and ship only the rest.
func (f *benchFeed) assign(ch *sim.Chunk) *engine.Assign {
	as := f.bp.GetAssign()
	as.ID = engine.AssignID{B: uint32(ch.ID)}
	as.I0, as.J0 = ch.I0, ch.J0
	as.Rows, as.Cols, as.Q, as.Steps = ch.Rows, ch.Cols, f.c.Q, len(ch.Steps)
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			src := f.c.Block(ch.I0+i, ch.J0+j).Data
			if f.resident {
				if engine.AllZeroBits(src) {
					as.CFlags = append(as.CFlags, engine.CZero)
					continue
				}
				as.CFlags = append(as.CFlags, engine.CShip)
			}
			as.Blocks = append(as.Blocks, f.bp.GetCopy(src))
		}
	}
	as.Owned = true
	return as
}

func (f *benchFeed) Set(id engine.AssignID, k int) (*engine.Set, error) {
	f.mu.Lock()
	ch := f.out[id.B]
	f.mu.Unlock()
	set := f.bp.GetSet()
	set.K = k
	for i := 0; i < ch.Rows; i++ {
		set.A = append(set.A, f.a.Block(ch.I0+i, k).Data)
	}
	for j := 0; j < ch.Cols; j++ {
		set.B = append(set.B, f.b.Block(k, ch.J0+j).Data)
	}
	engine.StampIDs(set, 0, ch, k)
	return set, nil
}

func (f *benchFeed) Complete(id engine.AssignID, blocks [][]float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := f.out[id.B]
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			copy(f.c.Block(ch.I0+i, ch.J0+j).Data, blocks[i*ch.Cols+j])
		}
	}
	delete(f.out, id.B)
	f.left--
	f.cond.Broadcast()
	return nil
}

func (f *benchFeed) Acked(id engine.AssignID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.out, id.B)
	f.acked++
	f.cond.Broadcast()
	return nil
}

func (f *benchFeed) CommitFlush(ids []uint64, blocks [][]float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for n, id := range ids {
		_, i, j, _ := engine.CBlockCoords(id)
		copy(f.c.Block(i, j).Data, blocks[n])
	}
	f.left -= f.acked
	f.acked, f.flushing = 0, false
	f.cond.Broadcast()
	return nil
}

func (f *benchFeed) Lost() {
	f.mu.Lock()
	f.lost = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// transportRun is one full multiply over loopback TCP through the
// engine: the session's delta/result accounting, the logical
// communication volume (every operand block an update set referenced
// plus each C tile down and up once — the paper's CCR numerator) and
// the measured egress bytes.
type transportRun struct {
	comm   engine.CommStats
	blocks int64
	egress int64
}

// runTransportOnce executes one full multiply over loopback TCP through
// the one master: a RunFeeder session on the cluster dialect's server
// transport, fed by a benchFeed, and one pipelined worker. pool nil is
// the unpooled arm; disableDelta ships full update sets; resident turns
// on the single-flush result path (worker-resident C tiles, flush
// manifests instead of dense per-chunk results).
func runTransportOnce(tb testing.TB, ln net.Listener, c, a, b *matrix.Blocked, chunks []*sim.Chunk, pool *engine.BlockPool, disableDelta, resident bool) transportRun {
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	wconn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer wconn.Close() // RunWorker leaves a cleanly-Byed transport open
		engine.RunWorker(netmw.NewClusterWorkerTransport(wconn, pool), engine.WorkerConfig{
			StageCap: 2, Slots: 2, Cores: 1, PullSets: true, Pool: pool,
		})
	}()
	mtr := netmw.NewServerTransport(<-accepted, pool, func() error { return nil })
	fstats, err := engine.RunFeeder(mtr, newBenchFeed(c, a, b, chunks, pool, resident), engine.FeederConfig{
		Slots: 2, Pool: pool, DisableDelta: disableDelta,
	})
	if err != nil {
		tb.Fatal(err)
	}
	wg.Wait()
	cm := fstats.Comm
	return transportRun{
		comm:   cm,
		blocks: cm.BlocksShipped + cm.BlocksSkipped + 2*int64(c.BR*c.BC),
		egress: mtr.(byteCounter).BytesOut(),
	}
}

// BenchmarkTransport measures the steady-state TCP path of the unified
// engine — the demand protocol streaming update sets through the framed
// wire format — with and without the block-buffer/message pool. The
// pooled arm must sit an order of magnitude below the unpooled arm in
// allocs/op (the explicit release on result-ack is what makes the
// steady state allocation-free); MB/s tracks the moved payload volume.
// Results are checked bit-exact against the naive oracle (the engine
// accumulates every element in ascending-k order, exactly as the oracle
// does).
func BenchmarkTransport(b *testing.B) {
	const r, tt, s, q = 4, 64, 4, 24
	a, bb, c0, want, chunks := transportBenchInputs(r, tt, s, q, false)
	work := c0.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()

	for _, arm := range []struct {
		name string
		pool *engine.BlockPool
	}{
		{"pooled", engine.NewBlockPool()},
		{"unpooled", nil},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var blocks int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyBlocked(work, c0)
				b.StartTimer()
				// Delta disabled: this series' MB/s has always meant
				// "payload bytes of every logical block through the
				// port", and stays comparable across PRs; the delta
				// protocol has its own series (BenchmarkTransportDelta).
				blocks = runTransportOnce(b, ln, work, a, bb, chunks, arm.pool, true, false).blocks
			}
			b.StopTimer()
			b.SetBytes(blocks * int64(q) * int64(q) * 8)
			got := work.Assemble()
			for i := 0; i < got.Rows; i++ {
				for j := 0; j < got.Cols; j++ {
					if got.At(i, j) != want.At(i, j) {
						b.Fatalf("result differs from the oracle at (%d,%d): %g != %g",
							i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		})
	}
}

// TestTransportPoolingAllocRatio pins the acceptance bar: the pooled
// steady-state TCP path must allocate at least 10× less per run than
// the unpooled path, with a bit-exact result. (The benchmark reports
// the same numbers; this test makes the regression loud.)
func TestTransportPoolingAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short/race runs")
	}
	const r, tt, s, q = 4, 64, 4, 24
	a, bb, c0, want, chunks := transportBenchInputs(r, tt, s, q, false)
	work := c0.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	measure := func(pool *engine.BlockPool) float64 {
		// One untimed warmup run fills the pools (and the page cache).
		copyBlocked(work, c0)
		runTransportOnce(t, ln, work, a, bb, chunks, pool, false, false)
		return testing.AllocsPerRun(3, func() {
			copyBlocked(work, c0)
			runTransportOnce(t, ln, work, a, bb, chunks, pool, false, false)
		})
	}
	pooled := measure(engine.NewBlockPool())
	unpooled := measure(nil)
	t.Logf("allocs/run: pooled=%.0f unpooled=%.0f ratio=%.1fx", pooled, unpooled, unpooled/pooled)
	if pooled*10 > unpooled {
		t.Fatalf("pooling saves only %.1fx allocations (pooled %.0f, unpooled %.0f), want ≥ 10x",
			unpooled/pooled, pooled, unpooled)
	}
	got := work.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("result differs from the oracle at (%d,%d)", i, j)
			}
		}
	}
}

// maxReuseBench is the max-reuse configuration the result-path series
// tracks: a square 16×16×16-block problem at q=16 with µ=2 chunks and a
// zero-initialized C. The 512 distinct operand blocks all fit the
// default worker cache, so the delta protocol ships each exactly once;
// the zero C ships down as flags (CDown = 0) and each of the 256 C
// tiles flushes up exactly once.
const mrR, mrT, mrS, mrQ = 16, 16, 16, 16

// BenchmarkTransportDelta measures master egress of the max-reuse job
// over loopback TCP on the current data path ("delta": delta operand
// sets + resident single-flush results) and on the pre-delta protocol
// ("full": every set dense, every chunk's C shipped down and returned).
// Each arm reports egress-MB/op; the delta arm also reports the operand
// cache hit rate, the result-path series (flush-blocks/op, flush-MB/op
// and the dirty-block high-water mark) and the measured communication
// volume as
// a multiple of the §4 Loomis–Whitney lower bound (x-lower-bound) — the
// numbers BENCH_transport.json tracks across PRs.
func BenchmarkTransportDelta(b *testing.B) {
	a, bb, c0, want, chunks := transportBenchInputs(mrR, mrT, mrS, mrQ, true)
	work := c0.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	for _, arm := range []struct {
		name     string
		disable  bool
		resident bool
	}{
		{"full", true, false},
		{"delta", false, true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			pool := engine.NewBlockPool()
			var run transportRun
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyBlocked(work, c0)
				b.StartTimer()
				run = runTransportOnce(b, ln, work, a, bb, chunks, pool, arm.disable, arm.resident)
			}
			b.StopTimer()
			b.ReportMetric(float64(run.egress)/1e6, "egress-MB/op")
			if !arm.disable {
				b.ReportMetric(run.comm.HitRate()*100, "%cache-hit")
				b.ReportMetric(float64(run.comm.FlushBlocks), "flush-blocks/op")
				b.ReportMetric(float64(run.comm.FlushBlocks*mrQ*mrQ*8)/1e6, "flush-MB/op")
				b.ReportMetric(float64(run.comm.DirtyPeak), "dirty-peak")
				pr := core.Problem{R: mrR, S: mrS, T: mrT, Q: mrQ}
				b.ReportMetric(measuredOverLowerBound(run, pr, chunks), "x-lower-bound")
			}
			got := work.Assemble()
			for i := 0; i < got.Rows; i++ {
				for j := 0; j < got.Cols; j++ {
					if got.At(i, j) != want.At(i, j) {
						b.Fatalf("result differs from the oracle at (%d,%d)", i, j)
					}
				}
			}
		})
	}
}

// measuredOverLowerBound compares one run's measured master-side block
// traffic against the paper's §4 communication lower bound.
//
//	measured = Comm.BlocksShipped   (operand payloads actually sent)
//	         + Comm.CDown           (C tiles shipped down with payload)
//	         + Comm.CUp             (C tiles returned: dense results + flushes)
//	bound    = √(27/(8m)) · updates (LowerBoundLoomisWhitney · |updates|)
//
// Skipped operand blocks (cache hits), CZero flags and CResident tiles
// move no payload and do not count; every block that does carries q²
// doubles, so block counts compare directly. m is the worker memory the
// run effectively had: the default resident-cache budget (the bench
// worker advertises no memory) plus the largest chunk's in-flight
// footprint.
func measuredOverLowerBound(run transportRun, pr core.Problem, chunks []*sim.Chunk) float64 {
	maxFootprint := 0
	for _, ch := range chunks {
		if fp := engine.InflightFootprint(ch.Rows, ch.Cols); fp > maxFootprint {
			maxFootprint = fp
		}
	}
	mem := engine.DefaultCacheBlocks + maxFootprint
	bound := bounds.LowerBoundLoomisWhitney(mem) * float64(pr.Updates())
	measured := float64(run.comm.BlocksShipped + run.comm.CDown + run.comm.CUp)
	return measured / bound
}

// TestResultPathLowerBound is the acceptance pin for the result-path
// tentpole: on the max-reuse configuration, the full data path — delta
// operand sets plus resident single-flush results — must land within 4×
// of the Loomis–Whitney lower bound (the dense result path sat at ~9×:
// every chunk shipped its C tiles down and back per chunk), with every
// C tile flushed exactly once, no C payload downlink (the zero C rides
// the CZero flag), and a bit-exact result.
func TestResultPathLowerBound(t *testing.T) {
	a, bb, c0, want, chunks := transportBenchInputs(mrR, mrT, mrS, mrQ, true)
	work := c0.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	run := runTransportOnce(t, ln, work, a, bb, chunks, engine.NewBlockPool(), false, true)
	got := work.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("result differs from the oracle at (%d,%d)", i, j)
			}
		}
	}
	pr := core.Problem{R: mrR, S: mrS, T: mrT, Q: mrQ}
	if fb := run.comm.FlushBlocks; fb != int64(pr.CBlocks()) {
		t.Fatalf("flushed %d blocks, want every C tile exactly once (%d)", fb, pr.CBlocks())
	}
	if cd := run.comm.CDown; cd != 0 {
		t.Fatalf("shipped %d C payloads down; a zero C must ride the CZero flag", cd)
	}
	x := measuredOverLowerBound(run, pr, chunks)
	t.Logf("max-reuse: measured/lower-bound = %.2fx (shipped %d, C down %d, C up %d, dirty peak %d)",
		x, run.comm.BlocksShipped, run.comm.CDown, run.comm.CUp,
		run.comm.DirtyPeak)
	if x >= 4 {
		t.Fatalf("measured communication is %.2fx the lower bound, want < 4x", x)
	}
}

// TestDeltaEgressReduction is the acceptance pin for the communication
// tentpole: on a multi-chunk max-reuse job at equal problem size, the
// delta protocol must cut measured master-egress bytes by at least 40%
// versus the pre-PR full-set protocol, while staying bit-exact against
// the naive oracle.
func TestDeltaEgressReduction(t *testing.T) {
	const r, tt, s, q = 4, 64, 4, 24
	a, bb, c0, want, chunks := transportBenchInputs(r, tt, s, q, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Both arms use dense per-chunk results: this pin isolates the delta
	// operand protocol (the result path has its own acceptance pin in
	// TestResultPathLowerBound).
	measure := func(disable bool) (int64, transportRun) {
		work := c0.Clone()
		run := runTransportOnce(t, ln, work, a, bb, chunks, engine.NewBlockPool(), disable, false)
		got := work.Assemble()
		for i := 0; i < got.Rows; i++ {
			for j := 0; j < got.Cols; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("disable=%v: result differs from the oracle at (%d,%d)", disable, i, j)
				}
			}
		}
		return run.egress, run
	}
	full, fullStats := measure(true)
	delta, deltaStats := measure(false)
	drop := 1 - float64(delta)/float64(full)
	t.Logf("egress: full=%d bytes, delta=%d bytes, drop=%.1f%% (skipped %d of %d operand blocks)",
		full, delta, drop*100, deltaStats.comm.BlocksSkipped,
		deltaStats.comm.BlocksShipped+deltaStats.comm.BlocksSkipped)
	if drop < 0.40 {
		t.Fatalf("delta protocol cut egress by %.1f%%, want ≥ 40%%", drop*100)
	}
	// The logical communication volume (the paper's CCR numerator) must
	// be identical: deltas change what needs payload, not the protocol.
	if fullStats.blocks != deltaStats.blocks {
		t.Fatalf("logical blocks differ: full=%d delta=%d", fullStats.blocks, deltaStats.blocks)
	}
	if fullStats.comm.BlocksSkipped != 0 {
		t.Fatalf("full protocol skipped %d blocks", fullStats.comm.BlocksSkipped)
	}
}

// BenchmarkTransportCodec measures the bulk little-endian float path
// against the portable per-element loop on q=100 blocks (the paper's
// block size) — the encode/decode speedup BENCH_transport.json records
// alongside the egress numbers.
func BenchmarkTransportCodec(b *testing.B) {
	const q = 100
	block := make([]float64, q*q)
	for i := range block {
		block[i] = float64(i) * 1.0000001
	}
	encoded := make([]byte, 0, 8*len(block))
	dst := make([]float64, len(block))
	arms := []struct {
		name string
		run  func()
	}{
		{"encode-bulk", func() { encoded = matrix.AppendFloats(encoded[:0], block) }},
		{"encode-portable", func() { encoded = matrix.AppendFloatsPortable(encoded[:0], block) }},
		{"decode-bulk", func() { matrix.ReadFloats(dst, encoded) }},
		{"decode-portable", func() { matrix.ReadFloatsPortable(dst, encoded) }},
	}
	encoded = matrix.AppendFloats(encoded[:0], block) // prime for the decode arms
	// 64 codec passes per benchmark iteration: `make bench` runs few
	// iterations, and a multi-hundred-µs op amortizes timer noise on a
	// shared machine.
	const reps = 64
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(8*len(block)) * reps)
			for i := 0; i < b.N; i++ {
				for r := 0; r < reps; r++ {
					arm.run()
				}
			}
		})
	}
}
