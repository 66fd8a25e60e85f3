package mw

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/homog"
	"repro/internal/matrix"
	"repro/internal/netmw"
	"repro/internal/platform"
)

// build creates deterministic A, B, C and the expected C + A·B.
func build(t *testing.T, r, tt, s, q int) (a, b, c, want *matrix.Blocked) {
	t.Helper()
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, 1)
	matrix.DeterministicFill(bd, 2)
	matrix.DeterministicFill(cd, 3)
	ref := cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(ad, q), matrix.Partition(bd, q),
		matrix.Partition(cd, q), matrix.Partition(ref, q)
}

// demand runs C ← C + A·B demand-driven, the discipline the static
// runtime is checked against: a one-job in-process cluster.
func demand(c, a, b *matrix.Blocked, workers, mu, cores int) (cluster.JobRun, error) {
	fleet := make([]cluster.LocalWorkerConfig, workers)
	for i := range fleet {
		fleet[i] = cluster.LocalWorkerConfig{Mem: mu*mu + 4*mu, Cores: cores}
	}
	return cluster.RunJob(cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: mu}, fleet)
}

// demandTCP runs the same one-job cluster over loopback TCP with
// pipelined cluster workers: slots tasks in flight per worker (2 is
// chunk prefetch), stage staged sets, cores kernel shards and an
// optional per-update spin emulating slower processors.
func demandTCP(t *testing.T, c, a, b *matrix.Blocked, workers, mu, stage, slots, cores int, spin time.Duration) cluster.JobRun {
	t.Helper()
	srv, err := netmw.ServeCluster(cluster.New(cluster.Config{}), netmw.ClusterServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := netmw.RunClusterWorker(netmw.ClusterWorkerConfig{
				Addr: srv.Addr(), Memory: 2 * (mu*mu + 4*mu), StageCap: stage,
				Slots: slots, Cores: cores, Spin: spin,
			}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	run, err := srv.RunJob(workers, cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: mu})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// tasksDone sums the tasks every worker completed.
func tasksDone(run cluster.JobRun) int {
	n := 0
	for _, w := range run.Workers {
		n += w.Done
	}
	return n
}

func TestStaticCorrectness(t *testing.T) {
	for _, tc := range []struct{ r, tt, s, q, workers, mu, cap int }{
		{4, 4, 4, 8, 1, 2, 2},
		{4, 4, 4, 8, 2, 2, 2},
		{6, 3, 9, 4, 3, 2, 1},
		{5, 2, 7, 4, 2, 3, 2}, // ragged chunks
		{2, 2, 2, 8, 4, 1, 2}, // more workers than panels
		{8, 5, 8, 4, 2, 8, 2}, // chunk bigger than C rows
	} {
		a, b, c, want := build(t, tc.r, tc.tt, tc.s, tc.q)
		rep, err := Multiply(c, a, b, Config{
			Workers: tc.workers, Mu: tc.mu, StageCap: tc.cap,
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !c.Equal(want, 1e-9) {
			t.Fatalf("%+v: wrong product", tc)
		}
		if rep.Result.Updates != int64(tc.r*tc.tt*tc.s) {
			t.Fatalf("%+v: %d updates", tc, rep.Result.Updates)
		}
	}
}

// TestDemandCorrectness runs the demand-driven discipline as a one-job
// in-process cluster: exact product, every task done exactly once.
func TestDemandCorrectness(t *testing.T) {
	for _, tc := range []struct{ r, tt, s, q, workers, mu int }{
		{4, 4, 4, 8, 1, 2},
		{4, 4, 4, 8, 3, 2},
		{7, 3, 5, 4, 4, 2}, // ragged
		{6, 6, 6, 4, 2, 3},
	} {
		a, b, c, want := build(t, tc.r, tc.tt, tc.s, tc.q)
		run, err := demand(c, a, b, tc.workers, tc.mu, 1)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !c.Equal(want, 1e-9) {
			t.Fatalf("%+v: wrong product", tc)
		}
		if n := tasksDone(run); n != run.Status.TasksTotal || n != run.Status.TasksDone {
			t.Fatalf("%+v: workers did %d tasks, job has %d (%d done)", tc, n, run.Status.TasksTotal, run.Status.TasksDone)
		}
	}
}

// TestDemandPipelined drives the prefetch pipeline (two task slots: the
// next chunk streams while the current one computes) with and without
// multi-core kernels, asserting the exact product and that every task
// is done exactly once.
func TestDemandPipelined(t *testing.T) {
	for _, tc := range []struct{ r, tt, s, q, workers, mu, cap, cores int }{
		{4, 4, 4, 8, 1, 2, 1, 1}, // single worker drains the pool alone
		{4, 4, 4, 8, 2, 2, 2, 2}, // multi-core kernels
		{7, 3, 5, 4, 3, 2, 2, 4}, // ragged chunks
		{6, 6, 6, 4, 2, 3, 1, 1}, // sequential kernel
		{2, 2, 2, 8, 4, 1, 2, 3}, // more workers than chunks
		{8, 5, 8, 4, 2, 8, 2, 2}, // chunk bigger than C rows
	} {
		a, b, c, want := build(t, tc.r, tc.tt, tc.s, tc.q)
		run := demandTCP(t, c, a, b, tc.workers, tc.mu, tc.cap, 2, tc.cores, 0)
		if !c.Equal(want, 1e-9) {
			t.Fatalf("%+v: wrong product", tc)
		}
		if n := tasksDone(run); n != run.Status.TasksTotal {
			t.Fatalf("%+v: workers did %d tasks, job has %d", tc, n, run.Status.TasksTotal)
		}
	}
}

// TestPrefetchMatchesUnprefetched pins bit-exactness: the pipelined,
// multi-core TCP run must produce the identical floats as the plain
// in-process demand run.
func TestPrefetchMatchesUnprefetched(t *testing.T) {
	a, b, c1, _ := build(t, 6, 4, 6, 8)
	_, _, c2, _ := build(t, 6, 4, 6, 8)
	if _, err := demand(c1, a, b, 3, 2, 1); err != nil {
		t.Fatal(err)
	}
	demandTCP(t, c2, a, b, 3, 2, 2, 2, 4, 0)
	d1, d2 := c1.Assemble(), c2.Assemble()
	for i := 0; i < d1.Rows; i++ {
		for j := 0; j < d1.Cols; j++ {
			if d1.At(i, j) != d2.At(i, j) {
				t.Fatalf("pipelined result differs at (%d,%d): %g != %g", i, j, d2.At(i, j), d1.At(i, j))
			}
		}
	}
}

func TestStaticWithHoLMPlan(t *testing.T) {
	// drive the runtime with the real Algorithm 1 plan including resource
	// selection.
	q := 8
	a, b, c, want := build(t, 8, 4, 8, q)
	pr := core.Problem{R: 8, S: 8, T: 4, Q: q}
	pl := platform.Homogeneous(4, 1, 0.25, 60) // µ = 6, P = ⌈6·0.25/2⌉ = 1
	sel, err := homog.Select(pl, pr)
	if err != nil {
		t.Fatal(err)
	}
	plan := homog.BuildPlan(pl, pr, sel.P, sel.Mu)
	rep, err := Multiply(c, a, b, Config{
		Workers: 4, Mu: sel.Mu, StageCap: 2, Plan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	if rep.Result.Enrolled != sel.P {
		t.Fatalf("enrolled %d, want %d", rep.Result.Enrolled, sel.P)
	}
}

func TestOperandsUntouched(t *testing.T) {
	a, b, c, _ := build(t, 4, 4, 4, 8)
	asum, bsum := a.Assemble().Checksum(), b.Assemble().Checksum()
	if _, err := Multiply(c, a, b, Config{Workers: 2, Mu: 2, StageCap: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := demand(c, a, b, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	if a.Assemble().Checksum() != asum || b.Assemble().Checksum() != bsum {
		t.Fatal("input operands were modified")
	}
}

func TestDemandUsesAllWorkersWhenSlow(t *testing.T) {
	// with artificial per-update cost, all workers get enrolled
	a, b, c, want := build(t, 8, 2, 8, 4)
	run := demandTCP(t, c, a, b, 4, 2, 2, 1, 1, 200*time.Microsecond)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	enrolled := 0
	for _, w := range run.Workers {
		if w.Done > 0 {
			enrolled++
		}
	}
	if enrolled < 3 {
		t.Fatalf("only %d workers enrolled with slow compute", enrolled)
	}
}

func TestMultiplyErrors(t *testing.T) {
	a, b, c, _ := build(t, 4, 4, 4, 8)
	if _, err := Multiply(c, a, b, Config{Workers: 0, Mu: 1}); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := Multiply(c, a, b, Config{Workers: 1, Mu: 0}); err == nil {
		t.Fatal("µ=0 accepted")
	}
	bad := matrix.NewBlocked(3, 4, 8)
	if _, err := Multiply(c, bad, b, Config{Workers: 1, Mu: 1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := demand(c, a, b, 0, 1, 1); err == nil {
		t.Fatal("demand run with 0 workers accepted")
	}
	if _, err := demand(c, bad, b, 1, 1, 1); err == nil {
		t.Fatal("demand run with a shape mismatch accepted")
	}
}

func TestBlocksAccounting(t *testing.T) {
	// exact comm volume for divisible shapes: chunks·(2µ² + t·2µ).
	a, b, c, _ := build(t, 4, 3, 4, 4)
	rep, err := Multiply(c, a, b, Config{Workers: 2, Mu: 2, StageCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	chunks := int64(4) // (4/2)·(4/2)
	want := chunks * (2*4 + 3*4)
	if rep.Result.Blocks != want {
		t.Fatalf("blocks %d, want %d", rep.Result.Blocks, want)
	}
}

// Property: static replay and the demand-driven one-job cluster both
// compute the exact same C as the naive product for random shapes,
// worker counts, µ and staging depth.
func TestQuickBothModes(t *testing.T) {
	f := func(rRaw, sRaw, tRaw, wRaw, muRaw, capRaw uint8, useDemand bool) bool {
		r := int(rRaw%5) + 1
		s := int(sRaw%5) + 1
		tt := int(tRaw%4) + 1
		workers := int(wRaw%3) + 1
		mu := int(muRaw%3) + 1
		cap := int(capRaw%2) + 1
		q := 4
		ad := matrix.NewDense(r*q, tt*q)
		bd := matrix.NewDense(tt*q, s*q)
		cd := matrix.NewDense(r*q, s*q)
		matrix.DeterministicFill(ad, int64(rRaw))
		matrix.DeterministicFill(bd, int64(sRaw)+100)
		matrix.DeterministicFill(cd, int64(tRaw)+200)
		ref := cd.Clone()
		matrix.MulNaive(ref, ad, bd)
		a := matrix.Partition(ad, q)
		b := matrix.Partition(bd, q)
		c := matrix.Partition(cd, q)
		var err error
		if useDemand {
			_, err = demand(c, a, b, workers, mu, 1)
		} else {
			_, err = Multiply(c, a, b, Config{Workers: workers, Mu: mu, StageCap: cap})
		}
		if err != nil {
			return false
		}
		return c.Assemble().Equal(ref, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
