package mw

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/homog"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sim"
)

// TestCrossCheckSimulatorAccounting verifies that the discrete-event
// simulator and the real goroutine runtime agree exactly on the
// master-side communication volume when driven by the same Algorithm 1
// plan: the simulator models what the runtime moves.
func TestCrossCheckSimulatorAccounting(t *testing.T) {
	for _, tc := range []struct{ r, tt, s, q, p, mu int }{
		{6, 4, 6, 4, 2, 2},
		{5, 3, 7, 4, 3, 2}, // ragged
		{8, 2, 8, 4, 4, 3},
		{4, 5, 4, 4, 1, 4},
	} {
		pr := core.Problem{R: tc.r, S: tc.s, T: tc.tt, Q: tc.q}
		pl := platform.Homogeneous(tc.p, 1, 0.5, 1000)
		plan := homog.BuildPlan(pl, pr, tc.p, tc.mu)

		cfgs := make([]sim.WorkerConfig, tc.p)
		for i := range cfgs {
			cfgs[i] = sim.WorkerConfig{StageCap: 2}
		}
		simRes, err := sim.Run(sim.Input{
			Platform: pl, Configs: cfgs, Queues: plan.Queues,
			Policy: sim.NewSequencePolicy("plan", plan.Ops),
		})
		if err != nil {
			t.Fatalf("%+v: sim: %v", tc, err)
		}

		ad := matrix.NewDense(tc.r*tc.q, tc.tt*tc.q)
		bd := matrix.NewDense(tc.tt*tc.q, tc.s*tc.q)
		cd := matrix.NewDense(tc.r*tc.q, tc.s*tc.q)
		matrix.DeterministicFill(ad, 1)
		matrix.DeterministicFill(bd, 2)
		matrix.DeterministicFill(cd, 3)
		a := matrix.Partition(ad, tc.q)
		b := matrix.Partition(bd, tc.q)
		c := matrix.Partition(cd, tc.q)
		plan2 := homog.BuildPlan(pl, pr, tc.p, tc.mu)
		rep, err := Multiply(c, a, b, Config{
			Workers: tc.p, Mu: tc.mu, StageCap: 2, Plan: plan2,
		})
		if err != nil {
			t.Fatalf("%+v: mw: %v", tc, err)
		}

		if simRes.Blocks != rep.Result.Blocks {
			t.Fatalf("%+v: simulator moved %d blocks, runtime moved %d",
				tc, simRes.Blocks, rep.Result.Blocks)
		}
		if simRes.Updates != rep.Result.Updates {
			t.Fatalf("%+v: simulator %d updates, runtime %d",
				tc, simRes.Updates, rep.Result.Updates)
		}
	}
}

// Property version over random shapes.
func TestQuickCrossCheck(t *testing.T) {
	f := func(rRaw, sRaw, tRaw, pRaw, muRaw uint8) bool {
		pr := core.Problem{
			R: int(rRaw%6) + 1, S: int(sRaw%6) + 1, T: int(tRaw%3) + 1, Q: 4,
		}
		p := int(pRaw%3) + 1
		mu := int(muRaw%3) + 1
		pl := platform.Homogeneous(p, 1, 0.5, 1000)
		plan := homog.BuildPlan(pl, pr, p, mu)
		cfgs := make([]sim.WorkerConfig, p)
		for i := range cfgs {
			cfgs[i] = sim.WorkerConfig{StageCap: 2}
		}
		simRes, err := sim.Run(sim.Input{
			Platform: pl, Configs: cfgs, Queues: plan.Queues,
			Policy: sim.NewSequencePolicy("plan", plan.Ops),
		})
		if err != nil {
			return false
		}
		a := matrix.NewBlocked(pr.R, pr.T, pr.Q)
		b := matrix.NewBlocked(pr.T, pr.S, pr.Q)
		c := matrix.NewBlocked(pr.R, pr.S, pr.Q)
		rep, err := Multiply(c, a, b, Config{
			Workers: p, Mu: mu, StageCap: 2,
			Plan: homog.BuildPlan(pl, pr, p, mu),
		})
		if err != nil {
			return false
		}
		return simRes.Blocks == rep.Result.Blocks && simRes.Updates == rep.Result.Updates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
