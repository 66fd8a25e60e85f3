// Command mmbench is the repository's end-to-end benchmark. It runs the
// cluster service the way it ships — cmd/mmserve at its default flags
// plus -store, two `mwworker -cluster -cores 1 -slots 2` workers — in
// one process over loopback TCP, drives it with closed-loop clients
// calling the same submit functions as `mmserve -submit`, and checks
// every timed result against a reference computed before the timed
// window.
//
//	mmbench --workload small-jobs --seed 1 --seconds 25 --trace 0
//
// The service keeps every finished job in memory, so one instance
// serves a bounded number of jobs: a run is a sequence of rounds, each
// booting a fresh service on an empty journal, warming it up with one
// job and timing jobs until the workload's job cap or the end of the
// run's --seconds, whichever is first.
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) runs one round untraced and one with the benchmark's
// wrappers around the service's journal and worker links, reports the
// per-layer metrics and the tracing overhead, and writes the spans and
// a Gantt chart under .bench_out/trace/. --workload all runs every
// workload, each in a fresh process.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is 1 when any job
// failed or returned a wrong result, 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
)

const (
	workDir = ".bench_build" // journal directories, one per service boot
	outDir  = ".bench_out"   // traces
	// setupBoots is how many times an untraced run boots the service
	// to time its set-up; setup_s is the median.
	setupBoots = 31
	// freeReserve is the disk space kept free beyond a round's journal.
	freeReserve = 256 << 20
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: small-jobs, big-matmul, lu-factor, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 30, "length of the timed window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "mmbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *traced, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "mmbench: unknown workload %q\n", *name)
		return 2
	}
	if err := checkJournalDisk(workDir); err != nil {
		fmt.Fprintf(stderr, "mmbench: %v\n", err)
		return 1
	}
	cfg := config{
		wl: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, workDir: workDir, traceDir: filepath.Join(outDir, "trace", w.name),
	}
	ctx := newRunContext(w, *seed, *traced)
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "mmbench: %s: %v\n", w.name, err)
		return 1
	}
	return report(res, ctx, stdout, stderr)
}

// config is one benchmark run.
type config struct {
	wl       workload
	seed     int64
	window   time.Duration
	traced   bool
	workDir  string // parent of the journal directories
	traceDir string // where a traced run writes its spans and Gantt chart
	// wrap wraps every worker link of an untraced round; tests inject
	// faults through it.
	wrap func(name string, tr engine.Transport) engine.Transport
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

// round is one service instance: booted on an empty journal, warmed up
// with one job, driven through one timed window, shut down.
type round struct {
	samples       []jobSample
	t0, tEnd      time.Time
	before, after cluster.Stats // at the window's start and end
	journalBytes  int64         // journal growth over the window
	workers       []cluster.WorkerInfo
	served        int // jobs the service ran, warm-up included
	mem           int // blocks each worker advertised
	rec           *recorder
}

func (r *round) wall() float64 { return r.tEnd.Sub(r.t0).Seconds() }

// rate is the round's completed correct jobs per second.
func (r *round) rate() float64 {
	var ok int
	for _, s := range r.samples {
		if s.ok {
			ok++
		}
	}
	return float64(ok) / r.wall()
}

// measure generates the inputs and references, then runs the rounds a
// run consists of and computes its metrics. An untraced run repeats
// rounds until their windows add up to the run's window; a traced run
// is one untraced round and one traced round.
func measure(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	ins := makeInputs(cfg.wl, cfg.seed)
	var rounds []*round
	if !cfg.traced {
		// Set-up is timed on boots of its own, before any load: a boot
		// right after a round would also time the disk absorbing that
		// round's journal.
		setups := make([]float64, 0, setupBoots)
		for len(setups) < setupBoots {
			s, d, err := startService(journalDir(cfg, len(setups)), cfg.wl.q, hooks{})
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			if _, err := s.stop(); err != nil {
				return nil, fmt.Errorf("shut down: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		for left := cfg.window; left > 0; {
			r, err := runRound(cfg, ins, nil, len(rounds), left)
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, r)
			left -= r.tEnd.Sub(r.t0)
		}
		res := &result{metrics: endToEnd(cfg.wl, rounds, setups)}
		res.attempted, res.failed, res.notes = failures(rounds)
		return res, nil
	}
	isolated := isolatedKernel(cfg.wl)
	base, err := runRound(cfg, ins, nil, 0, cfg.window)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tr, err := runRound(cfg, ins, rec, 1, cfg.window)
	if err != nil {
		return nil, err
	}
	if err := rec.writeTrace(cfg.traceDir); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res := &result{metrics: perLayer(cfg.wl, tr, base, isolated)}
	res.attempted, res.failed, res.notes = failures([]*round{base, tr})
	return res, nil
}

func journalDir(cfg config, i int) string {
	return filepath.Join(cfg.workDir, fmt.Sprintf("journal-%d-%d", os.Getpid(), i))
}

// runRound boots a service, warms it up with one job, drives it
// through one timed window and shuts it down. The window ends when
// window has passed or the workload's job cap has been reached,
// whichever is first. A non-nil rec is wired into the journal and the
// worker links.
func runRound(cfg config, ins []*input, rec *recorder, i int, window time.Duration) (*round, error) {
	// Start every round from a collected heap, as a freshly started
	// process would, so what the previous round left does not inflate
	// this round's peak.
	debug.FreeOSMemory()
	h := hooks{wrap: cfg.wrap}
	if rec != nil {
		h = hooks{log: func(l cluster.JobLog) cluster.JobLog { return timedLog{JobLog: l, rec: rec} }, wrap: rec.wrap}
	}
	w := cfg.wl
	if err := checkFree(cfg.workDir, int64(w.maxJobs()+1)*journalBytesPerJob(w)); err != nil {
		return nil, err
	}
	svc, _, err := startService(journalDir(cfg, i), w.q, h)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &round{mem: svc.mem, rec: rec}
	fail := func(err error) (*round, error) {
		_, _ = svc.stop() // err is the failure to report
		return nil, err
	}

	// Warm-up: one job, plus one per LU input still without its
	// reference, whose first result has to pass the residual test.
	var keys atomic.Uint64
	addr := svc.srv.Addr()
	for i, in := range ins {
		if i > 0 && in.want != nil {
			continue
		}
		if err := settle(addr, w, in, keys.Add(1)); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
		r.served++
	}

	r.before = svc.cl.ClusterStats()
	size0 := svc.jn.Size()
	r.t0 = time.Now()
	if rec != nil {
		rec.begin(r.t0)
	}
	r.samples, r.tEnd = closedLoop(addr, w, ins, r.t0, window, w.maxJobs(), &keys)
	r.after = svc.cl.ClusterStats()
	r.journalBytes = svc.jn.Size() - size0
	r.served += len(r.samples)
	if rec != nil {
		for _, s := range r.samples {
			rec.clientJob(s)
		}
		rec.end(r.tEnd)
	}
	if r.workers, err = svc.stop(); err != nil {
		return nil, fmt.Errorf("shut down: %w", err)
	}
	return r, nil
}

// journalBytesPerJob over-estimates what one job appends to the
// journal: its operands on acceptance, then every committed tile. An
// LU of r×r blocks commits a trailing tile once per stage that updates
// it, about r/3 times the matrix in all.
func journalBytesPerJob(w workload) int64 {
	n2 := int64(w.n) * int64(w.n) * 8
	if w.kind == cluster.LU {
		return n2 * int64(2+w.n/w.q/3)
	}
	return 5 * n2
}

// checkJournalDisk refuses a journal directory on tmpfs: the journal
// must fsync to a disk, at the cost it has in deployment.
func checkJournalDisk(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	const tmpfsMagic = 0x01021994
	if st.Type == tmpfsMagic {
		return fmt.Errorf("%s is on tmpfs; the journal must fsync to a disk", dir)
	}
	return nil
}

// checkFree fails when dir's filesystem has less than need bytes free
// beyond freeReserve, so a full disk shows as an error before the run
// instead of as failed jobs inside it.
func checkFree(dir string, need int64) error {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	free := int64(st.Bavail) * int64(st.Bsize)
	if free < need+freeReserve {
		return fmt.Errorf("%s has %d MB free; the journal needs about %d MB plus %d MB reserve",
			dir, free>>20, need>>20, freeReserve>>20)
	}
	return nil
}

// isolatedKernel measures blas.UpdateChunk on the workload's µ×µ chunk
// of q×q blocks in one goroutine, before any service runs: the kernel's
// rate without the serving path around it, in Gflop/s (median of
// batches of at least 20 ms).
func isolatedKernel(w workload) float64 {
	newBlocks := func(n int, seed int64) [][]float64 {
		bs := make([][]float64, n)
		for i := range bs {
			d := matrix.NewDense(w.q, w.q)
			matrix.DeterministicFill(d, seed+int64(i))
			bs[i] = d.Data
		}
		return bs
	}
	c, a, b := newBlocks(w.mu*w.mu, 1), newBlocks(w.mu, 100), newBlocks(w.mu, 200)
	call := func() { blas.UpdateChunk(c, a, b, w.mu, w.mu, w.q) }
	flops := 2 * math.Pow(float64(w.q), 3) * float64(w.mu*w.mu)
	call()
	perBatch := 1
	for {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			call()
		}
		if time.Since(start) >= 20*time.Millisecond {
			break
		}
		perBatch *= 2
	}
	var rates []float64
	for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline) || len(rates) < 5; {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			call()
		}
		rates = append(rates, flops*float64(perBatch)/float64(time.Since(start).Nanoseconds()))
	}
	return median(rates)
}

// runContext is recorded with every result, so a later run can be
// compared like for like.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Kernel     string `json:"kernel"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func newRunContext(w workload, seed int64, traced int) runContext {
	return runContext{
		Workload: w.name, Seed: seed, Trace: traced, Kernel: blas.KernelName(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the run's context and a table of its metrics with
// units and sample counts, then the result object as the last line.
func report(res *result, ctx runContext, stdout, stderr io.Writer) int {
	ctxLine, _ := json.Marshal(ctx) // plain struct of strings and ints: cannot fail
	fmt.Fprintf(stdout, "context %s\n", ctxLine)
	out := jsonResult{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]jsonMetric, len(res.metrics)),
	}
	fmt.Fprintf(stdout, "%-30s %14s %-9s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-30s %14.6g %-9s %8d  %s\n", m.name, m.value, m.unit, m.samples, m.label)
		v := m.value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed job's infinite latency; the run fails anyway
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d jobs)\n", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "mmbench: FAILED: %s\n", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "mmbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh process of this binary, so
// each reports its own peak RSS, and exits non-zero if any failed.
func runAll(seed int64, seconds, traced int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "mmbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s\n", w.name)
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "mmbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
