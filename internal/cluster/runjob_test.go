package cluster

import (
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
)

func localFleet(n, mem int) []LocalWorkerConfig {
	fleet := make([]LocalWorkerConfig, n)
	for i := range fleet {
		fleet[i].Mem = mem
	}
	return fleet
}

// TestRunJobMatMul pins the one-job helper's report: the job is done
// with the reference product, every worker of the fleet is in the
// registry, each task was done exactly once, and the session
// accounting covers every operand block the update sets referenced.
func TestRunJobMatMul(t *testing.T) {
	c, a, b, ref := blockedInputs(t, 24, 16, 32, 4, 1)
	run, err := RunJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}, localFleet(3, 64))
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
	st := run.Status
	if st.State != Done || st.TasksDone != st.TasksTotal {
		t.Fatalf("status %+v", st)
	}
	if len(run.Workers) != 3 {
		t.Fatalf("%d workers in the registry, want 3", len(run.Workers))
	}
	done := 0
	for _, w := range run.Workers {
		done += w.Done
	}
	if done != st.TasksTotal {
		t.Fatalf("workers did %d tasks, job has %d", done, st.TasksTotal)
	}
	// 6×8 C blocks in 2×2 chunks over t = 4: 12 chunks × 4 sets × 4 blocks.
	if got := st.Comm.BlocksShipped + st.Comm.BlocksSkipped; got != 12*4*4 {
		t.Fatalf("sessions reported %d operand blocks, want %d", got, 12*4*4)
	}
	if run.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestRunJobErrors(t *testing.T) {
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 1)
	if _, err := RunJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1}, nil); err == nil {
		t.Fatal("a job with no workers was accepted")
	}
	if _, err := RunJob(JobSpec{Kind: MatMul, C: c, A: b, B: b, Mu: 0}, localFleet(1, 64)); err == nil {
		t.Fatal("µ = 0 was accepted")
	}
	// A chunk no worker can hold fails the job, and RunJob says so.
	if _, err := RunJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}, localFleet(1, 3)); err == nil {
		t.Fatal("a job no worker can hold reported success")
	}
}

// TestRunJobLUDeterministicAcrossWorkerCounts: the parallel LU job
// produces bit-identical factors at 1, 2 and 4 workers (every tile's
// trailing updates accumulate in stage order whoever computes them),
// with a residual at the sequential factorization's level.
func TestRunJobLUDeterministicAcrossWorkerCounts(t *testing.T) {
	const q, r = 4, 8
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 5)
	var first *matrix.Dense
	for _, workers := range []int{1, 2, 4} {
		m := matrix.Partition(orig, q)
		if _, err := RunJob(JobSpec{Kind: LU, M: m, Mu: 1}, localFleet(workers, 64)); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		got := m.Assemble()
		if res := lu.Residual(orig, got); res > 1e-8 {
			t.Fatalf("%d workers: residual %g", workers, res)
		}
		if first == nil {
			first = got
			continue
		}
		for i := range got.Data {
			if got.Data[i] != first.Data[i] {
				t.Fatalf("%d workers: factor differs from 1 worker at element %d", workers, i)
			}
		}
	}
}

// TestRunJobLUMatchesSequential: across matrix orders, tile sizes, µ
// and worker counts, the LU job's packed factors agree with lu.Factor's
// at the same tile size to rounding level. They are not bit-identical:
// the master factors each diagonal tile with its own unblocked kernel
// (observed gaps are at most 1.2e-16 on these cases).
func TestRunJobLUMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ n, q, mu, workers int }{
		{8, 4, 1, 1}, {8, 4, 1, 2}, {16, 4, 2, 4}, {24, 8, 1, 3}, {32, 8, 2, 8}, {20, 4, 3, 2}, {12, 12, 1, 2},
	} {
		orig := matrix.NewDense(tc.n, tc.n)
		lu.DiagonallyDominant(orig, int64(tc.n))
		m := matrix.Partition(orig, tc.q)
		if _, err := RunJob(JobSpec{Kind: LU, M: m, Mu: tc.mu}, localFleet(tc.workers, 64)); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := orig.Clone()
		if err := lu.Factor(want, tc.q); err != nil {
			t.Fatal(err)
		}
		if d := m.Assemble().MaxDiff(want); d > 1e-12 {
			t.Fatalf("%+v: LU job differs from lu.Factor by %g", tc, d)
		}
	}
}

// TestRunJobLUResidual pins an LU job's result and accounting: n = 32
// in 8×8 tiles is r = 4 block rows, so at µ = 1 the stages open
// 3² + 2² + 1² = 14 one-tile tasks, each reading one L and one U block.
func TestRunJobLUResidual(t *testing.T) {
	const q, r = 8, 4
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 5)
	m := matrix.Partition(orig, q)
	run, err := RunJob(JobSpec{Kind: LU, M: m, Mu: 1}, localFleet(4, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res := lu.Residual(orig, m.Assemble()); res > 1e-8 {
		t.Fatalf("residual %g", res)
	}
	st := run.Status
	if st.State != Done || st.TasksTotal != 14 || st.TasksDone != 14 {
		t.Fatalf("status %+v, want 14 tasks done", st)
	}
	if got := st.Comm.BlocksShipped + st.Comm.BlocksSkipped; got != 14*2 {
		t.Fatalf("sessions reported %d operand blocks, want %d", got, 14*2)
	}
}
