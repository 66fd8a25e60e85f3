// Package mw is the in-process static master-worker runtime: it replays
// the paper's static schedules on real block matrices, with the master
// and each worker running as goroutines and every transfer moving
// actual q×q blocks — the paper's one-port reproduction. The master
// replays the communication order of a homog.Plan (Algorithm 1, or any
// other static order such as the OMMOML plan), verified to compute
// C ← C + A·B exactly. The demand-driven ODDOML discipline (§8.2) is the
// cluster's: a single demand-driven job is cluster.RunJob.
//
// The runtime is a thin shell over the shared engine (internal/engine):
// workers are engine.RunWorker goroutines behind engine.Pipe transports,
// so the worker protocol — staging caps, the delta operand cache —
// lives in exactly one place, shared with the cluster service. Block
// compute rides the engine's chunk kernel (blas.UpdateChunk /
// blas.ParallelUpdateChunk): the packed register-blocked GEMM with
// chunk-level pack reuse, bit-exact with the sequential reference at
// any Cores setting. The pipes are synchronous, so the one-port model
// holds by construction: the master is a single sequential goroutine
// whose sends block when a worker's staging area is full. Transfers are
// zero-copy where safe (operand sets move by reference; C tiles are
// copied through a block pool because the worker mutates them).
package mw

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/homog"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Config configures a run.
type Config struct {
	Workers  int
	Mu       int // chunk side in blocks
	StageCap int // staging update sets per worker (1 or 2)
	// Cores is the number of kernel goroutines each worker shards its
	// block updates across (blas.ParallelUpdateChunk). 0 or 1 keeps the
	// single-threaded kernel — the in-process runtime already runs many
	// worker goroutines, so extra sharding is opt-in. Results are
	// bit-identical either way.
	Cores int
	// Plan supplies the static order. If nil, an Algorithm 1 plan over
	// all workers is built.
	Plan *homog.Plan
}

// Report summarizes a real execution.
type Report struct {
	Result    core.Result
	Elapsed   time.Duration
	PerWorker []int64 // block updates performed by each worker
	// Comm is the delta protocol's accounting: how many operand blocks
	// actually moved versus how many were served from worker-resident
	// caches. Result.Blocks stays the logical volume (what the paper's
	// CCR counts and the simulators predict).
	Comm engine.CommStats
}

// Multiply computes C ← C + A·B on the runtime. A is r×t, B t×s, C r×s
// blocks of identical q. It returns a report with the wall-clock time and
// the per-worker update counts.
func Multiply(c, a, b *matrix.Blocked, cfg Config) (Report, error) {
	if a.BR != c.BR || b.BC != c.BC || a.BC != b.BR || a.Q != b.Q || a.Q != c.Q {
		return Report{}, fmt.Errorf("mw: shape mismatch C %dx%d, A %dx%d, B %dx%d",
			c.BR, c.BC, a.BR, a.BC, b.BR, b.BC)
	}
	if cfg.Workers < 1 {
		return Report{}, fmt.Errorf("mw: need at least one worker")
	}
	if cfg.Mu < 1 {
		return Report{}, fmt.Errorf("mw: µ must be ≥ 1")
	}
	if cfg.StageCap < 1 {
		cfg.StageCap = 1
	}
	pr := core.Problem{R: c.BR, S: c.BC, T: a.BC, Q: a.Q}

	start := time.Now()
	rep, err := runStatic(c, a, b, pr, cfg)
	if err != nil {
		return rep, err
	}
	rep.Elapsed = time.Since(start)
	rep.Result.Makespan = rep.Elapsed.Seconds()
	enrolled := 0
	for _, u := range rep.PerWorker {
		rep.Result.Updates += u
		if u > 0 {
			enrolled++
		}
	}
	rep.Result.Enrolled = enrolled
	return rep, nil
}

// workerSet is the in-process worker fleet: engine workers behind pipe
// transports, with their reports collected on exit.
type workerSet struct {
	links   []engine.Transport // master-side pipe ends
	updates []int64
	wg      sync.WaitGroup
}

// startWorkers launches one engine worker goroutine per pipe pair. The
// workers pull nothing: the plan fixes the communication order, so they
// just consume transfers and return results.
func startWorkers(n int, cfg Config, pool *engine.BlockPool) *workerSet {
	ws := &workerSet{links: make([]engine.Transport, n), updates: make([]int64, n)}
	for w := 0; w < n; w++ {
		master, worker := engine.Pipe()
		ws.links[w] = master
		ws.wg.Add(1)
		go func(w int, tr engine.Transport) {
			defer ws.wg.Done()
			rep, _ := engine.RunWorker(tr, engine.WorkerConfig{
				StageCap: cfg.StageCap, Slots: 1, Cores: cfg.Cores, Pool: pool,
			})
			ws.updates[w] = rep.Updates
		}(w, worker)
	}
	return ws
}

// finish says goodbye on every pipe and joins the workers.
func (ws *workerSet) finish() {
	for _, tr := range ws.links {
		tr.Send(engine.Bye{}) // best effort; the peer may have failed
		tr.Close()
	}
	ws.wg.Wait()
}

// runStatic replays a static plan: the master walks the plan's
// communication order, materializing each op as an engine message on the
// worker's pipe. The per-worker progress (current chunk and step) is
// tracked here so SendAB ops know which operands to ship; the workers
// are ordinary engine workers that pull nothing.
func runStatic(c, a, b *matrix.Blocked, pr core.Problem, cfg Config) (Report, error) {
	plan := cfg.Plan
	if plan == nil {
		plan = homog.BuildPlan(dummyPlatform(cfg.Workers), pr, cfg.Workers, cfg.Mu)
	}
	pool := engine.NewBlockPool()
	ws := startWorkers(cfg.Workers, cfg, pool)

	queues := make([][]*sim.Chunk, cfg.Workers)
	for w := range queues {
		if w < len(plan.Queues) {
			queues[w] = append([]*sim.Chunk(nil), plan.Queues[w]...)
		}
	}
	active := make([]*sim.Chunk, cfg.Workers)
	step := make([]int, cfg.Workers)
	// One delta builder per worker: the plan fixes the communication
	// order, but operand payloads still collapse to deltas against each
	// worker's resident cache (zero-copy refs on the in-process pipes).
	builders := make([]engine.SetBuilder, cfg.Workers)
	var blocks int64

	for _, op := range plan.Ops {
		w := op.Worker
		if w < 0 || w >= cfg.Workers {
			ws.finish()
			return Report{}, fmt.Errorf("mw: plan references worker %d of %d", w+1, cfg.Workers)
		}
		switch op.Kind {
		case sim.SendC:
			if active[w] != nil || len(queues[w]) == 0 {
				ws.finish()
				return Report{}, fmt.Errorf("mw: invalid SendC to P%d", w+1)
			}
			active[w] = queues[w][0]
			queues[w] = queues[w][1:]
			step[w] = 0
			if err := ws.links[w].Send(makeAssign(c, active[w], pool)); err != nil {
				ws.finish()
				return Report{}, err
			}
			blocks += int64(active[w].Blocks)
		case sim.SendAB:
			ch := active[w]
			if ch == nil || step[w] >= len(ch.Steps) {
				ws.finish()
				return Report{}, fmt.Errorf("mw: invalid SendAB to P%d", w+1)
			}
			set := builders[w].Filter(makeSet(a, b, ch, step[w], pool),
				engine.InflightFootprint(ch.Rows, ch.Cols), pool)
			if err := ws.links[w].Send(set); err != nil {
				ws.finish()
				return Report{}, err
			}
			blocks += int64(ch.Rows + ch.Cols)
			step[w]++
		case sim.RecvC:
			ch := active[w]
			if ch == nil {
				ws.finish()
				return Report{}, fmt.Errorf("mw: invalid RecvC from P%d", w+1)
			}
			msg, err := ws.links[w].Recv()
			if err != nil {
				ws.finish()
				return Report{}, err
			}
			res, ok := msg.(*engine.Result)
			if !ok {
				ws.finish()
				return Report{}, fmt.Errorf("mw: worker P%d sent %T, want a result", w+1, msg)
			}
			if err := storeResult(c, ch, res, pool); err != nil {
				ws.finish()
				return Report{}, err
			}
			blocks += int64(ch.Blocks)
			active[w] = nil
		}
	}
	ws.finish()
	rep := Report{
		Result:    core.Result{Algorithm: "mw-static", Blocks: blocks},
		PerWorker: ws.updates,
	}
	for w := range builders {
		rep.Comm.Add(builders[w].Stats)
		builders[w].Release()
	}
	return rep, nil
}

// dummyPlatform builds a placeholder platform when only the worker count
// matters (plan construction needs no costs in this runtime; real time is
// measured, not modeled).
func dummyPlatform(p int) *platform.Platform {
	return platform.Homogeneous(p, 1, 1, 1<<20)
}

// makeAssign builds the Assign for a chunk: pooled copies of the C tile,
// because the in-process worker mutates the blocks it receives and the
// master matrix must stay clean until the result lands.
func makeAssign(c *matrix.Blocked, ch *sim.Chunk, pool *engine.BlockPool) *engine.Assign {
	as := pool.GetAssign()
	as.ID = engine.AssignID{A: uint32(ch.ID)}
	as.I0, as.J0 = ch.I0, ch.J0
	as.Rows, as.Cols, as.Q, as.Steps = ch.Rows, ch.Cols, c.Q, len(ch.Steps)
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			as.Blocks = append(as.Blocks, pool.GetCopy(c.Block(ch.I0+i, ch.J0+j).Data))
		}
	}
	as.Owned = true
	return as
}

// makeSet builds the k-th update set for a chunk as shared references:
// the operands are read-only, so no transport needs a copy. The Set
// itself is recycled through the pool by its consumer. The manifest is
// stamped with job-0 block IDs; a SetBuilder turns it into a delta.
func makeSet(a, b *matrix.Blocked, ch *sim.Chunk, k int, pool *engine.BlockPool) *engine.Set {
	set := pool.GetSet()
	set.K = k
	for i := 0; i < ch.Rows; i++ {
		set.A = append(set.A, a.Block(ch.I0+i, k).Data)
	}
	for j := 0; j < ch.Cols; j++ {
		set.B = append(set.B, b.Block(k, ch.J0+j).Data)
	}
	engine.StampIDs(set, 0, ch, k)
	return set
}

// storeResult writes a returned tile back into C and releases the
// buffers of an owned result — the explicit release on result-ack.
func storeResult(c *matrix.Blocked, ch *sim.Chunk, res *engine.Result, pool *engine.BlockPool) error {
	q := c.Q
	if len(res.Blocks) != ch.Rows*ch.Cols {
		return fmt.Errorf("mw: result has %d blocks, want %d", len(res.Blocks), ch.Rows*ch.Cols)
	}
	for _, blk := range res.Blocks {
		if len(blk) != q*q {
			return fmt.Errorf("mw: result block has %d elements, want %d", len(blk), q*q)
		}
	}
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			copy(c.Block(ch.I0+i, ch.J0+j).Data, res.Blocks[i*ch.Cols+j])
		}
	}
	// The store consumes the result: release its buffers and recycle the
	// message itself.
	if res.Owned {
		pool.PutAll(res.Blocks)
	}
	res.Blocks = nil
	pool.PutResult(res)
	return nil
}
