package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// LocalWorkerConfig configures an in-process worker.
type LocalWorkerConfig struct {
	ID  string
	Mem int // advertised capacity in blocks
	// Cores is the kernel parallelism: the number of goroutines each
	// task's block updates are sharded across (0 or 1 = sequential).
	// Results are bit-identical at any value.
	Cores int
	// Joined, when non-nil, is closed once registration succeeds.
	Joined chan struct{}
}

// RunLocalWorker joins the cluster and serves tasks until the cluster
// closes (returns nil) or the worker is declared dead (returns the
// error). It is the in-process transport: the same engine worker the
// TCP runtime runs, fed through an engine.Pipe by the same feeder the
// TCP server runs — the cluster dialect (tasks pushed, sets pulled)
// minus the sockets and the framing.
func RunLocalWorker(cl *Cluster, cfg LocalWorkerConfig) error {
	epoch, err := cl.JoinWorker(cfg.ID, cfg.Mem, 1)
	if err != nil {
		return err
	}
	if cfg.Joined != nil {
		close(cfg.Joined)
	}
	feed := NewEngineFeed(cl, cfg.ID, epoch)
	defer feed.Lost()
	master, worker := engine.Pipe()
	feedErr := make(chan error, 1)
	go func() {
		fstats, err := engine.RunFeeder(master, feed, engine.FeederConfig{
			Slots: 1, Pool: cl.pool, Mem: cfg.Mem,
		})
		cl.ReportCommEpoch(cfg.ID, epoch, fstats)
		feedErr <- err
	}()
	_, err = engine.RunWorker(worker, engine.WorkerConfig{
		StageCap: 1, Slots: 1, Cores: cfg.Cores,
		PullSets: true,
		Pool:     cl.pool,
	})
	// The worker's exit closed the pipe (or followed the feeder's Bye),
	// so the feeder is done or about to be — the receive cannot block
	// for long, and once it returns the session's accounting is in.
	fe := <-feedErr
	if err != nil {
		// Surface the scheduler's verdict (dead, replaced, a TaskSet or
		// Complete failure, …) rather than the pipe closure it caused.
		if schedErr := feed.TakeNextErr(); schedErr != nil {
			return schedErr
		}
		if fe != nil {
			return fe
		}
	}
	return err
}

// JobRun is the outcome of a one-job run (RunJob, or the TCP server's
// RunJob): the job's final status, the worker registry once every
// worker has exited, and the wall time from submission to completion.
type JobRun struct {
	Status  Status
	Workers []WorkerInfo
	Elapsed time.Duration
}

// RunJob runs spec as the only job of a fresh in-process cluster: one
// RunLocalWorker per entry of workers (an empty ID becomes w1, w2, …;
// Joined is managed here), then SubmitJob once every worker has
// registered, Wait and Close. A job that failed returns its error. A
// single job is just a cluster running one job.
func RunJob(spec JobSpec, workers []LocalWorkerConfig) (JobRun, error) {
	if len(workers) == 0 {
		return JobRun{}, fmt.Errorf("cluster: need at least one worker")
	}
	if err := spec.Validate(); err != nil {
		return JobRun{}, err
	}
	cl := New(Config{})
	var wg sync.WaitGroup
	for i, wc := range workers {
		if wc.ID == "" {
			wc.ID = fmt.Sprintf("w%d", i+1)
		}
		joined, exited := make(chan struct{}), make(chan struct{})
		wc.Joined = joined
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(exited)
			RunLocalWorker(cl, wc) // a failed worker's tasks requeue
		}()
		select {
		case <-joined:
		case <-exited:
		}
	}
	start := time.Now()
	id, err := cl.SubmitJob(spec)
	if err == nil {
		_, err = cl.Wait(id)
	}
	elapsed := time.Since(start)
	cl.Close()
	wg.Wait()
	if err != nil {
		return JobRun{}, err
	}
	return cl.RunOf(id, elapsed)
}

// RunOf collects the JobRun of a finished job that took elapsed; a job
// that failed returns its error. Sessions report their communication
// totals as they exit, so callers read it after every session ended.
func (cl *Cluster) RunOf(id JobID, elapsed time.Duration) (JobRun, error) {
	st, err := cl.JobStatus(id)
	if err == nil && st.State != Done {
		err = st.Err
	}
	return JobRun{Status: st, Workers: cl.Workers(), Elapsed: elapsed}, err
}
