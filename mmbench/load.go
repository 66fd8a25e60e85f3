package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/netmw"
)

// workload is one closed-loop traffic mix: clients each submit the same
// job shape back to back, blocking on the reply the way
// `mmserve -submit` does, cycling over inputs distinct inputs.
type workload struct {
	name     string
	kind     cluster.JobKind
	n, q, mu int
	clients  int
	inputs   int
}

// The three workloads stress different layers of the serving path.
var workloads = []workload{
	// The job `mmserve -submit` sends by default, from two clients: the
	// control plane, where journal fsyncs under the scheduler lock and
	// dispatch dominate and the kernel is a small share.
	{name: "small-jobs", kind: cluster.MatMul, n: 512, q: 64, mu: 4, clients: 2, inputs: 4},
	// One large product: the data path and the kernel, 100 MB of
	// operands per job.
	{name: "big-matmul", kind: cluster.MatMul, n: 2048, q: 128, mu: 4, clients: 1, inputs: 1},
	// The same layers used differently: panels factor serially on the
	// master between stage barriers, and every tile goes through the
	// self-contained Freivalds check.
	{name: "lu-factor", kind: cluster.LU, n: 2048, q: 128, mu: 2, clients: 1, inputs: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// retainBudget bounds the job matrices one service instance holds. The
// service keeps every finished job's operands and result in memory, to
// answer resubmitted keys, so the process grows with the jobs it has
// served; a round ends at the job count that fills this budget.
const retainBudget = 256 << 20

// maxJobs is how many jobs one service instance runs in a window.
func (w workload) maxJobs() int {
	n2 := int64(w.n) * int64(w.n) * 8
	per := n2 // an LU holds its one matrix
	if w.kind == cluster.MatMul {
		per = 3 * n2
	}
	return int(max(1, retainBudget/per))
}

// flopsPerJob is the useful work of one job: 2n³ for a product, (2/3)n³
// for an LU factorization.
func (w workload) flopsPerJob() float64 {
	n := float64(w.n)
	if w.kind == cluster.LU {
		return 2 * n * n * n / 3
	}
	return 2 * n * n * n
}

// input is one distinct job input with the result it must produce.
type input struct {
	a, b *matrix.Blocked // product operands (nil for LU)
	init *matrix.Blocked // C of a product, or the matrix an LU factors
	orig *matrix.Dense   // LU: the unfactored matrix, for the residual
	// want is the exact expected result. A product's comes from
	// blas.ParallelGemm; an LU's is the first result of the input, once
	// its residual has passed.
	want *matrix.Blocked
}

// luResidualMax bounds the residual of the first LU result of an input.
const luResidualMax = 1e-8

// makeInputs builds a workload's inputs from the seed, with every
// product's reference, before any service starts.
func makeInputs(w workload, seed int64) []*input {
	ins := make([]*input, w.inputs)
	for i := range ins {
		s := seed*1000 + int64(i)*10
		in := &input{}
		switch w.kind {
		case cluster.LU:
			orig := matrix.NewDense(w.n, w.n)
			lu.DiagonallyDominant(orig, s)
			in.orig, in.init = orig, matrix.Partition(orig, w.q)
		default:
			ad, bd, cd := matrix.NewDense(w.n, w.n), matrix.NewDense(w.n, w.n), matrix.NewDense(w.n, w.n)
			matrix.DeterministicFill(ad, s)
			matrix.DeterministicFill(bd, s+1)
			matrix.DeterministicFill(cd, s+2)
			in.a, in.b, in.init = matrix.Partition(ad, w.q), matrix.Partition(bd, w.q), matrix.Partition(cd, w.q)
			blas.ParallelGemm(w.n, w.n, w.n, ad.Data, w.n, bd.Data, w.n, cd.Data, w.n, 0)
			in.want = matrix.Partition(cd, w.q)
		}
		ins[i] = in
	}
	return ins
}

// submit runs one job of input in through the service at addr, the way
// `mmserve -submit` does. work must hold a copy of in.init; it receives
// the result.
func submit(addr string, w workload, in *input, work *matrix.Blocked, key uint64) error {
	opts := netmw.SubmitOptions{
		Key: key, Timeout: 10 * time.Minute,
		Backoff: time.Second, BackoffMax: 30 * time.Second,
	}
	if w.kind == cluster.LU {
		return netmw.SubmitLUDurable(addr, work, w.mu, opts)
	}
	return netmw.SubmitMatMulDurable(addr, work, in.a, in.b, w.mu, opts)
}

// settle runs input in once and makes its reference exact: a product
// must already match, an LU's first result must pass the residual test
// and then becomes the bit pattern every repeat must reproduce.
func settle(addr string, w workload, in *input, key uint64) error {
	work := in.init.Clone()
	if err := submit(addr, w, in, work, key); err != nil {
		return err
	}
	if in.want != nil {
		if !equalBits(work, in.want) {
			return fmt.Errorf("result differs from the blas.ParallelGemm reference")
		}
		return nil
	}
	if r := residual(in.orig, work.Assemble()); !(r <= luResidualMax) {
		return fmt.Errorf("LU residual %.3g exceeds %g", r, luResidualMax)
	}
	in.want = work
	return nil
}

// residual is lu.Residual, max|A − L·U|, with the product formed by
// blas.ParallelGemm instead of matrix.MulNaive: the two are pinned
// bit-identical by the repository's tests, and the parallel kernel
// keeps the check to a second at n=2048.
func residual(orig, packed *matrix.Dense) float64 {
	l, u := lu.ExtractLU(packed)
	n := orig.Rows
	prod := matrix.NewDense(n, n)
	blas.ParallelGemm(n, n, n, l.Data, n, u.Data, n, prod.Data, n, 0)
	return orig.MaxDiff(prod)
}

// jobSample is one job of the timed window as its client saw it.
type jobSample struct {
	key        uint64
	start, end time.Time
	ok         bool // answered and bit-exact against the reference
	err        error
}

// latencyMS is the client-seen latency; a failed job never meets any
// latency limit, so it counts as infinite.
func (s jobSample) latencyMS() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6
}

// closedLoop runs the workload's clients from t0 until the window has
// passed or maxJobs jobs have started, each client finishing the job it
// has in flight, and returns every job with the last completion. Keys
// come from keys, so every job is a new one to the service.
func closedLoop(addr string, w workload, ins []*input, t0 time.Time, window time.Duration, maxJobs int, keys *atomic.Uint64) (samples []jobSample, tEnd time.Time) {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		started atomic.Int64
	)
	deadline := t0.Add(window)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := matrix.NewBlocked(ins[0].init.BR, ins[0].init.BC, w.q)
			var mine []jobSample
			for time.Now().Before(deadline) && started.Add(1) <= int64(maxJobs) {
				key := keys.Add(1)
				in := ins[key%uint64(len(ins))]
				copyBlocked(work, in.init)
				s := jobSample{key: key, start: time.Now()}
				s.err = submit(addr, w, in, work, key)
				s.end = time.Now()
				switch {
				case s.err != nil:
				case !equalBits(work, in.want):
					s.err = fmt.Errorf("job key %d: result is not bit-identical to the reference", key)
				default:
					s.ok = true
				}
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	tEnd = t0
	for _, s := range samples {
		if s.end.After(tEnd) {
			tEnd = s.end
		}
	}
	return samples, tEnd
}

func copyBlocked(dst, src *matrix.Blocked) {
	for i, b := range src.Blocks {
		copy(dst.Blocks[i].Data, b.Data)
	}
}

func equalBits(got, want *matrix.Blocked) bool {
	if len(got.Blocks) != len(want.Blocks) {
		return false
	}
	for i, b := range want.Blocks {
		if !blas.EqualBits(got.Blocks[i].Data, b.Data) {
			return false
		}
	}
	return true
}
