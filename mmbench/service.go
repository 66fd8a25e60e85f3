package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/netmw"
	"repro/internal/platform"
	"repro/internal/store"
)

// The fleet every workload runs on: the homogeneous platform of the
// paper's own experiments, two workers joined the way
// `mwworker -cluster -cores 1 -slots 2 -mem 256` joins them.
const (
	numWorkers     = 2
	workerMemBytes = 256 << 20
)

// hooks are the benchmark's measurement seams into one service. The
// zero value runs the service exactly as cmd/mmserve builds it.
type hooks struct {
	// log wraps the journal's JobLog (the traced run times Append).
	log func(cluster.JobLog) cluster.JobLog
	// wrap wraps every worker session's transport (the traced run
	// records the engine messages; tests inject faults).
	wrap func(name string, tr engine.Transport) engine.Transport
}

// service is one instance of the cluster service in the configuration
// cmd/mmserve builds at its default flags plus -store: an fsync'd
// journal behind cluster.NewStoreLog, Freivalds verification of every
// task, 3 quarantine strikes, 500 ms retry backoff, Recover and
// CompactLog at boot, and netmw.ServeCluster on loopback TCP.
type service struct {
	dir string
	jn  *store.Journal
	cl  *cluster.Cluster
	srv *netmw.ClusterServer
	mem int // blocks each worker advertises

	exited map[string]chan struct{} // closed when the named worker returns
	mu     sync.Mutex
	werr   []error
}

// startService boots a service on the empty journal directory dir and
// returns once both workers are registered, with the set-up time: from
// journal open until the second registration.
func startService(dir string, q int, h hooks) (*service, time.Duration, error) {
	began := time.Now()
	jn, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("open journal: %w", err)
	}
	lg := cluster.NewStoreLog(jn)
	if h.log != nil {
		lg = h.log(lg)
	}
	cl := cluster.New(cluster.Config{
		HeartbeatTimeout: 10 * time.Second,
		MaxAttempts:      5,
		Retry:            cluster.RetryPolicy{Backoff: 500 * time.Millisecond},
		Verify:           cluster.VerifyPolicy{Mode: cluster.VerifyAll, QuarantineStrikes: 3},
		Log:              lg,
	})
	if _, err := cl.Recover(); err != nil {
		cl.Close()
		jn.Close()
		return nil, 0, fmt.Errorf("journal replay: %w", err)
	}
	if err := cl.CompactLog(); err != nil {
		cl.Close()
		jn.Close()
		return nil, 0, fmt.Errorf("compact journal: %w", err)
	}
	srv, err := netmw.ServeCluster(cl, netmw.ClusterServerConfig{
		Addr: "127.0.0.1:0", ExpiryEvery: 2 * time.Second, WrapTransport: h.wrap,
	})
	if err != nil {
		cl.Close()
		jn.Close()
		return nil, 0, err
	}
	s := &service{
		dir: dir, jn: jn, cl: cl, srv: srv, mem: platform.MemoryBlocks(workerMemBytes, q),
		exited: make(map[string]chan struct{}),
	}
	for i := 1; i <= numWorkers; i++ {
		cfg := netmw.ClusterWorkerConfig{
			Addr: srv.Addr(), Name: fmt.Sprintf("w%d", i), Memory: s.mem,
			StageCap: 2, Slots: 2, Cores: 1,
			HeartbeatEvery: 2 * time.Second, Reconnect: 10, Backoff: time.Second,
		}
		exited := make(chan struct{})
		s.exited[cfg.Name] = exited
		go func() {
			defer close(exited)
			if _, err := netmw.RunClusterWorker(cfg); err != nil {
				s.mu.Lock()
				s.werr = append(s.werr, fmt.Errorf("worker %s: %w", cfg.Name, err))
				s.mu.Unlock()
			}
		}()
	}
	deadline := began.Add(30 * time.Second)
	for cl.ClusterStats().WorkersAlive < numWorkers {
		if time.Now().After(deadline) {
			_, _ = s.stop() // the registration failure is the error to report
			return nil, 0, errors.New("workers did not register within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return s, time.Since(began), nil
}

// stop shuts the service down in mmserve's order, waits for the workers
// to exit and removes the journal directory. It returns the worker
// registry as it stands once the sessions have drained, which is when
// each session's wire and cache accounting lands.
//
// A quarantined worker is not waited for: its registrations are
// refused, so it redials until its reconnect budget runs out, against
// a listener that is gone. The quarantine itself is counted as a
// failure from the service's statistics.
func (s *service) stop() ([]cluster.WorkerInfo, error) {
	s.cl.Close()
	s.srv.Close()
	workers := s.cl.Workers()
	var errs []error
	deadline := time.After(30 * time.Second)
	for _, w := range workers {
		if w.Quarantined {
			continue
		}
		select {
		case <-s.exited[w.ID]:
		case <-deadline:
			errs = append(errs, fmt.Errorf("worker %s did not exit within 30s of shutdown", w.ID))
		}
	}
	if err := s.jn.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close journal: %w", err))
	}
	if err := os.RemoveAll(s.dir); err != nil {
		errs = append(errs, fmt.Errorf("remove journal: %w", err))
	}
	s.mu.Lock()
	errs = append(errs, s.werr...)
	s.mu.Unlock()
	return workers, errors.Join(errs...)
}
