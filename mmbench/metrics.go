package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"

	"repro/internal/bounds"
)

// metric is one reported number with its unit, the count of samples
// behind it and, where the number needs one, a label saying how it was
// obtained.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	label   string
}

// metricUnits gives the unit of every metric BENCHMARK.json declares:
// an untraced run reports the end-to-end ones, a traced run the
// per-layer ones.
var metricUnits = map[string]string{
	"jobs_per_s": "1/s", "gflops": "Gflop/s", "job_ms_p50": "ms", "job_ms_tail": "ms",
	"setup_s": "s", "rss_peak_mb": "MB",

	"store.appends_per_job": "count", "store.append_MB_per_job": "MB", "store.append_ms_p50": "ms",
	"store.append_ms_p99": "ms", "store.append_busy_frac": "fraction", "store.disk_MB_per_job": "MB",
	"cluster.verify_busy_frac": "fraction", "cluster.verify_us_per_tile": "us", "cluster.requeues": "count",
	"engine.job_exec_ms_p50": "ms", "engine.worker_idle_frac": "fraction", "engine.send_busy_frac": "fraction",
	"engine.sets_per_job": "count", "engine.flushes_per_job": "count", "engine.cache_hit": "fraction",
	"netmw.submit_overhead_ms_p50": "ms", "netmw.wire_MB_per_job": "MB", "netmw.x_lower_bound": "ratio",
	"blas.busy_frac": "fraction", "blas.gflops_in_situ": "Gflop/s", "blas.gflops_isolated": "Gflop/s",
	"blas.flops_per_wire_byte": "flop/B", "trace.overhead_frac": "fraction",
}

func newMetric(name string, value float64, samples int, label string) metric {
	return metric{name: name, unit: metricUnits[name], value: value, samples: samples, label: label}
}

// quantile is the nearest-rank p-quantile (0 < p ≤ 1) of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tail is the highest of p90, p95 and p99 with at least ten samples
// beyond it. Below a hundred samples no tail percentile is resolved:
// the median stands in, labelled so, because the maximum of a dozen
// jobs measures the machine's worst moment rather than the program.
func tail(sorted []float64) (float64, string) {
	n := len(sorted)
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			return quantile(sorted, p), fmt.Sprintf("p%g", p*100)
		}
	}
	return quantile(sorted, 0.5), "p50: under 100 samples, no tail percentile resolved"
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// failures counts the jobs the rounds attempted and the operations
// that failed: every job that failed, was refused or returned a wrong
// result, plus every tile a service refused and every worker it
// quarantined, so an integrity event cannot hide behind a correct
// final result. Jobs a service failed without its client noticing
// count too.
func failures(rounds []*round) (attempted, failed int, notes []string) {
	for _, r := range rounds {
		var bad int
		for _, s := range r.samples {
			if !s.ok {
				bad++
				if len(notes) < 5 {
					notes = append(notes, s.err.Error())
				}
			}
		}
		st := r.after
		if st.VerifyFailures > 0 || st.WorkersQuarantined > 0 || st.JobsFailed > 0 {
			notes = append(notes, fmt.Sprintf("service: %d tiles refused by verification, %d workers quarantined, %d jobs failed",
				st.VerifyFailures, st.WorkersQuarantined, st.JobsFailed))
		}
		bad += st.VerifyFailures + st.WorkersQuarantined + max(0, st.JobsFailed-bad)
		attempted += len(r.samples)
		failed += min(bad, len(r.samples))
	}
	return attempted, failed, notes
}

// endToEnd computes an untraced run's metrics: throughput as the median
// of the rounds' rates, latency over every job of every round, set-up
// time as the median of every boot.
func endToEnd(w workload, rounds []*round, setups []float64) []metric {
	var rates, lat []float64
	var ok int
	for _, r := range rounds {
		rates = append(rates, r.rate())
		for _, s := range r.samples {
			if s.ok {
				ok++
			}
			lat = append(lat, s.latencyMS())
		}
	}
	sort.Float64s(lat)
	tv, tl := tail(lat)
	rate := median(rates)
	perRounds := fmt.Sprintf("median of %d rounds", len(rounds))
	return []metric{
		newMetric("jobs_per_s", rate, ok, perRounds),
		newMetric("gflops", rate*w.flopsPerJob()/1e9, ok, perRounds),
		newMetric("job_ms_p50", quantile(lat, 0.5), len(lat), ""),
		newMetric("job_ms_tail", tv, len(lat), tl),
		newMetric("setup_s", median(setups), len(setups), "median of boots"),
		newMetric("rss_peak_mb", rssPeakMB(), 1, "getrusage maxrss"),
	}
}

// perLayer computes the traced run's metrics from the traced phase, the
// untraced phase run just before it, and the isolated kernel rate.
func perLayer(w workload, traced, untraced *round, isolated float64) []metric {
	c := traced.rec.counts()
	wall := traced.wall()
	jobs := float64(len(traced.samples))
	links := float64(max(c.links, 1))

	appendMS := make([]float64, len(c.appendNS))
	var appendBusy int64
	for i, ns := range c.appendNS {
		appendMS[i] = float64(ns) / 1e6
		appendBusy += ns
	}
	sort.Float64s(appendMS)
	sort.Float64s(c.execMS)
	var lat []float64
	for _, s := range traced.samples {
		lat = append(lat, s.latencyMS())
	}
	sort.Float64s(lat)

	verifyNS := traced.after.VerifyNS - traced.before.VerifyNS
	checks := traced.after.VerifyChecks - traced.before.VerifyChecks
	var shipped, skipped, wire int64
	for _, wi := range traced.workers {
		shipped += wi.BlocksShipped
		skipped += wi.BlocksSkipped
		wire += wi.WireBytesOut + wi.WireBytesIn
	}
	wirePerJob := float64(wire) / float64(traced.served)
	execP50 := quantile(c.execMS, 0.5)
	lwBound := bounds.LowerBoundLoomisWhitney(traced.mem) * float64(c.updates)

	return []metric{
		newMetric("store.appends_per_job", float64(len(c.appendNS))/jobs, len(c.appendNS), ""),
		newMetric("store.append_MB_per_job", float64(c.appendBytes)/jobs/1e6, len(c.appendNS), ""),
		newMetric("store.append_ms_p50", quantile(appendMS, 0.5), len(appendMS), ""),
		newMetric("store.append_ms_p99", quantile(appendMS, 0.99), len(appendMS), ""),
		newMetric("store.append_busy_frac", float64(appendBusy)/1e9/wall, len(appendMS), "journal fsync time under the scheduler lock"),
		newMetric("store.disk_MB_per_job", float64(traced.journalBytes)/jobs/1e6, len(traced.samples), ""),
		newMetric("cluster.verify_busy_frac", float64(verifyNS)/1e9/wall, checks, ""),
		newMetric("cluster.verify_us_per_tile", float64(verifyNS)/1e3/float64(max(checks, 1)), checks, ""),
		newMetric("cluster.requeues", float64(traced.after.Requeues-traced.before.Requeues), len(traced.samples), ""),
		newMetric("engine.job_exec_ms_p50", execP50, len(c.execMS), "first assign sent to last result received"),
		newMetric("engine.worker_idle_frac", float64(c.idleNS)/1e9/(links*wall), c.links, "no assignment outstanding"),
		newMetric("engine.send_busy_frac", float64(c.sendNS)/1e9/(links*wall), c.links, ""),
		newMetric("engine.sets_per_job", float64(c.sets)/jobs, len(traced.samples), ""),
		newMetric("engine.flushes_per_job", float64(c.flushes)/jobs, len(traced.samples), ""),
		newMetric("engine.cache_hit", float64(skipped)/float64(max(shipped+skipped, 1)), int(shipped+skipped), "operand blocks, WorkerInfo, warm-up included"),
		newMetric("netmw.submit_overhead_ms_p50", quantile(lat, 0.5)-execP50, len(lat), "client p50 minus engine.job_exec_ms_p50"),
		newMetric("netmw.wire_MB_per_job", wirePerJob/1e6, traced.served, "loopback, WorkerInfo, warm-up included"),
		newMetric("netmw.x_lower_bound", float64(c.blocksMoved)/lwBound, int(c.updates), fmt.Sprintf("blocks moved over Loomis-Whitney at m=%d", traced.mem)),
		newMetric("blas.busy_frac", float64(c.computeNS)/1e9/(numWorkers*wall), int(c.updates), ""),
		newMetric("blas.gflops_in_situ", 2*math.Pow(float64(w.q), 3)*float64(c.updates)/float64(max(c.computeNS, 1)), int(c.updates), ""),
		newMetric("blas.gflops_isolated", isolated, 1, fmt.Sprintf("UpdateChunk %dx%d chunk, q=%d, one goroutine", w.mu, w.mu, w.q)),
		newMetric("blas.flops_per_wire_byte", w.flopsPerJob()/wirePerJob, traced.served, "computed"),
		newMetric("trace.overhead_frac", 1-traced.rate()/untraced.rate(), len(traced.samples)+len(untraced.samples), "jobs_per_s traced vs untraced"),
	}
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
