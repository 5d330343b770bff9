package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"syscall"
	"time"

	"svto/pkg/svto"
)

// outcome is one finished job.  It keeps only the figures the metrics
// need: holding the Result would keep the job's whole Problem alive.
type outcome struct {
	key       string
	err       error
	leaves    int64
	reduction float64 // BaselineNA/LeakNA; 0 without a baseline
	latency   time.Duration
	cpu       time.Duration // process CPU time the job used
	done      time.Duration // completion time since the phase started
}

// heapSample is one reading of the Go heap's object bytes.
type heapSample struct {
	at      time.Duration
	objects uint64
}

// phase is one timed stretch of passes over the job set.
type phase struct {
	outcomes []outcome // in completion order
	passEnds []time.Duration
	heap     []heapSample
	failures []string
}

func (p *phase) attempted() int { return len(p.outcomes) }

func (p *phase) failed() int {
	n := 0
	for _, o := range p.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

// passes returns the [start, end) completion-time window of each pass.
func (p *phase) passes() [][2]time.Duration {
	var out [][2]time.Duration
	var lo time.Duration
	for _, hi := range p.passEnds {
		out = append(out, [2]time.Duration{lo, hi})
		lo = hi
	}
	return out
}

// cpuTime returns the CPU time, user plus system, that this process has
// used so far.  The Linux kernel counts it from the scheduler's task
// clock, which on a KVM guest with steal-time accounting leaves out the
// time the host kept the vCPU off a physical core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// execFunc runs one job; jobID numbers the job within the phase.
type execFunc func(ctx context.Context, j job, jobID int64) (*svto.Result, error)

// runPhase sends jobs one at a time until span has elapsed, stopping only
// at pass boundaries, so the phase holds whole passes and at least one.
// The job stream is a sequence of passes, each pass the whole job set in
// an order drawn from the seed and the pass number.  A single closed-loop
// client keeps the load within the host's cores and lets each job's
// process CPU time be its own.  Every result is checked against its
// reference; a failed check counts the job as failed.
func runPhase(w *workload, sys *system, jobs []job, refs references, seed int64, span time.Duration, exec execFunc) *phase {
	if exec == nil {
		exec = func(ctx context.Context, j job, _ int64) (*svto.Result, error) {
			return w.solve(ctx, sys, j)
		}
	}
	ctx := context.Background()
	p := &phase{}
	start := time.Now()
	stopHeap := sampleHeap(start, &p.heap)
	var id int64
	for pass := int64(0); pass == 0 || time.Since(start) < span; pass++ {
		for _, i := range rand.New(rand.NewSource(seed*1_000_003 + pass)).Perm(len(jobs)) {
			j := jobs[i]
			id++
			t0, c0 := time.Now(), cpuTime()
			res, err := exec(ctx, j, id)
			c1, lat := cpuTime(), time.Since(t0)
			if err == nil {
				err = refs.check(j.key, res)
			}
			o := outcome{key: j.key, err: err, latency: lat, cpu: c1 - c0, done: time.Since(start)}
			if err == nil {
				o.leaves, o.reduction = res.Stats.Leaves, res.ReductionX()
			} else {
				p.failures = append(p.failures, fmt.Sprintf("%s: %v", o.key, err))
			}
			p.outcomes = append(p.outcomes, o)
		}
		p.passEnds = append(p.passEnds, p.outcomes[len(p.outcomes)-1].done)
	}
	stopHeap()
	return p
}

// sampleHeap reads the Go heap every 2ms into *out until the returned
// stop function is called.
func sampleHeap(start time.Time, out *[]heapSample) (stop func()) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		*out = append(*out, heapSample{time.Since(start), sample[0].Value.Uint64()})
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		read()
	}
}

// summary is what an untraced phase reports: the set-up samples and the
// per-pass and per-job figures the end-to-end metrics are computed from.
type summary struct {
	SetupCPU   []float64 // seconds, one per cold set-up
	SetupWall  []float64
	PassCPU    []float64 // seconds, one per pass
	PassWall   []float64
	LeafRates  []float64 // leaves per CPU second, one per pass
	HeapPeaks  []float64 // MiB, one per pass
	JobCPUMS   []float64 // one per job
	JobWallMS  []float64
	Attempted  int
	Failed     int
	Failures   []string
	Reductions map[string]float64
}

// summarize reduces the phase to per-pass figures (CPU and wall time,
// leaves per CPU second, peak heap) and per-job CPU and wall times.
func (p *phase) summarize() summary {
	s := summary{Reductions: map[string]float64{}}
	s.count(p)
	oi, hi := 0, 0
	for _, win := range p.passes() {
		var cpu time.Duration
		var leaves float64
		for ; oi < len(p.outcomes) && p.outcomes[oi].done <= win[1]; oi++ {
			o := p.outcomes[oi]
			cpu += o.cpu
			leaves += float64(o.leaves)
			s.JobCPUMS = append(s.JobCPUMS, float64(o.cpu)/float64(time.Millisecond))
			s.JobWallMS = append(s.JobWallMS, float64(o.latency)/float64(time.Millisecond))
			if o.err == nil && o.reduction > 0 {
				s.Reductions[o.key] = o.reduction
			}
		}
		var peak uint64
		for ; hi < len(p.heap) && p.heap[hi].at <= win[1]; hi++ {
			peak = max(peak, p.heap[hi].objects)
		}
		s.PassCPU = append(s.PassCPU, cpu.Seconds())
		s.PassWall = append(s.PassWall, (win[1] - win[0]).Seconds())
		s.LeafRates = append(s.LeafRates, leaves/cpu.Seconds())
		s.HeapPeaks = append(s.HeapPeaks, float64(peak)/(1<<20))
	}
	return s
}

// count adds the phase's attempted and failed jobs to s; the warm-up pass
// is counted this way without entering the timings.
func (s *summary) count(p *phase) {
	s.Attempted += p.attempted()
	s.Failed += p.failed()
	s.Failures = append(s.Failures, p.failures...)
}

func (s *summary) failedRatio() float64 {
	return ratio(float64(s.Failed), float64(s.Attempted))
}

// beyondP90 counts the job CPU-time samples above their p90.
func (s *summary) beyondP90() int {
	p90 := quantile(s.JobCPUMS, 0.9)
	n := 0
	for _, l := range s.JobCPUMS {
		if l > p90 {
			n++
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics.  Pass-level figures are
// medians over the passes; job quantiles are taken over every job.
func (s *summary) endToEnd() map[string]float64 {
	var logSum float64
	for _, r := range s.Reductions {
		logSum += math.Log(r)
	}
	red := 0.0
	if len(s.Reductions) > 0 {
		red = math.Exp(logSum / float64(len(s.Reductions)))
	}
	return map[string]float64{
		"setup_s":          median(s.SetupCPU),
		"pass_cpu_s":       median(s.PassCPU),
		"job_cpu_p50_ms":   quantile(s.JobCPUMS, 0.5),
		"job_cpu_p90_ms":   quantile(s.JobCPUMS, 0.9),
		"leaves_per_cpu_s": median(s.LeafRates),
		"peak_heap_mb":     median(s.HeapPeaks),
		"ok_ratio":         1 - s.failedRatio(),
		"reduction_x":      red,
	}
}

// wallFigures are the wall-clock counterparts of the timing metrics.  The
// report prints them and the run record keeps them, but on a shared host
// they swing with the neighbours' load, so no bound rests on them.
func (s *summary) wallFigures() map[string]float64 {
	return map[string]float64{
		"setup_wall_s": median(s.SetupWall),
		"pass_wall_s":  median(s.PassWall),
		"job_p50_ms":   quantile(s.JobWallMS, 0.5),
		"job_p90_ms":   quantile(s.JobWallMS, 0.9),
	}
}

// wallMetrics are the wall-clock figures the report prints beside the
// end-to-end metrics.
var wallMetrics = []metricDef{
	{"setup_wall_s", "s"},
	{"pass_wall_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
}

// metricDef describes one reported metric.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are the untraced run's metrics, in report order.  They
// must match BENCHMARK.json's end_to_end list.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"pass_cpu_s", "s"},
	{"job_cpu_p50_ms", "ms"},
	{"job_cpu_p90_ms", "ms"},
	{"leaves_per_cpu_s", "1/s"},
	{"peak_heap_mb", "MiB"},
	{"ok_ratio", "ratio"},
	{"reduction_x", "x"},
}
