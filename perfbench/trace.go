package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/dist"
	"svto/pkg/svto"
)

// span is one timed call into a layer.  Spans of one job share Job; a
// span's Parent is the span that made the call (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    int64  `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans, counters and samples in memory until the run ends.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	counters map[string]float64
	samples  map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}, samples: map[string][]float64{}}
}

func (t *tracer) begin(name string, parent, job int64) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int64) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// do runs f inside a span and returns f's error.
func (t *tracer) do(name string, parent, job int64, f func() error) error {
	id := t.begin(name, parent, job)
	err := f()
	t.end(id)
	return err
}

// record adds a span measured elsewhere.
func (t *tracer) record(name string, parent, job int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// selfTimes sums each span name's self time: its duration minus its child
// spans' durations.  That is the part the children do not cover wherever
// children run one after another, as every job's layer calls do; a
// cluster job's RPC spans overlap, and its own self time is not reported.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// jobScope attributes calls the program makes on its own — RPCs, snapshot
// writes — to the job that is running, once a tracer is attached.
type jobScope struct {
	t      atomic.Pointer[tracer]
	job    atomic.Int64
	parent atomic.Int64
}

func (s *jobScope) enter(job, parent int64) { s.job.Store(job); s.parent.Store(parent) }
func (s *jobScope) leave()                  { s.enter(0, 0) }

// rpcRecorder is the shards' HTTP transport: it times every call and
// counts its bytes and the tasks each lease carries.
type rpcRecorder struct {
	jobScope
	base http.RoundTripper
}

func (r *rpcRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	t := r.t.Load()
	if t == nil {
		return r.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := r.base.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if err != nil {
			resp = nil
		}
	}
	end := time.Now()
	path := strings.TrimPrefix(req.URL.Path, dist.APIPrefix)
	t.record("rpc"+path, r.parent.Load(), r.job.Load(), start, end)
	t.add("rpc.calls", 1)
	t.sample("rpc.ms", float64(end.Sub(start))/float64(time.Millisecond))
	if req.ContentLength > 0 {
		t.add("rpc.bytes", float64(req.ContentLength))
	}
	t.add("rpc.bytes", float64(len(body)))
	if err != nil || resp.StatusCode >= 500 {
		t.add("rpc.failed", 1)
		return resp, err
	}
	if path == "/lease" && resp.StatusCode == http.StatusOK {
		var lr dist.LeaseReply
		if json.Unmarshal(body, &lr) == nil && len(lr.Tasks) > 0 {
			t.add("lease.count", 1)
			t.add("lease.tasks", float64(len(lr.Tasks)))
		}
	}
	return resp, nil
}

// timingFS is a checkpoint.FS over the real filesystem that times each
// snapshot write, from creating the temporary file to the rename that
// publishes it, and counts its bytes.
type timingFS struct {
	jobScope
	mu    sync.Mutex
	files map[string]*timingFile
}

type timingFile struct {
	*os.File
	start time.Time
	bytes int
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.bytes += n
	return n, err
}

func (fs *timingFS) CreateTemp(dir, pattern string) (checkpoint.File, error) {
	start := time.Now()
	f, err := os.CreateTemp(dir, pattern)
	if err != nil || fs.t.Load() == nil {
		return f, err
	}
	tf := &timingFile{File: f, start: start}
	fs.mu.Lock()
	if fs.files == nil {
		fs.files = map[string]*timingFile{}
	}
	fs.files[f.Name()] = tf
	fs.mu.Unlock()
	return tf, nil
}

func (fs *timingFS) Rename(oldpath, newpath string) error {
	err := os.Rename(oldpath, newpath)
	end := time.Now()
	fs.mu.Lock()
	tf := fs.files[oldpath]
	delete(fs.files, oldpath)
	fs.mu.Unlock()
	if t := fs.t.Load(); t != nil && tf != nil && err == nil {
		t.record("checkpoint.write", fs.parent.Load(), fs.job.Load(), tf.start, end)
		t.add("checkpoint.writes", 1)
		t.add("checkpoint.bytes", float64(tf.bytes))
		t.sample("checkpoint.write_ms", float64(end.Sub(tf.start))/float64(time.Millisecond))
	}
	return err
}

func (fs *timingFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (fs *timingFS) Remove(name string) error             { return os.Remove(name) }

// layerReport is the traced run's outcome.
type layerReport struct {
	phase    *phase
	values   map[string]float64
	findings []string
	spans    int
}

// tracedPhase runs the workload's jobs split into layer calls with spans
// on, under a CPU profile, then the layer probes, and derives the
// per-layer metrics.  plain is the untraced phase of the same run, the
// base of the tracing overhead.
func tracedPhase(o options, w *workload, sys *system, jobs []job, refs references, span time.Duration, plain *summary) (*layerReport, error) {
	t := newTracer()
	if sys.ckfs == nil {
		sys.ckfs = &timingFS{}
	}
	sys.ckfs.t.Store(t)
	defer sys.ckfs.t.Store(nil)
	if sys.rpc != nil {
		sys.rpc.t.Store(t)
		defer sys.rpc.t.Store(nil)
	}

	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	retries0 := shardRetries(sys)
	ph := runPhase(w, sys, jobs, refs, o.seed, span, func(ctx context.Context, j job, id int64) (*svto.Result, error) {
		return w.traced(ctx, sys, j, t, id)
	})
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	t.add("rpc.retries", float64(shardRetries(sys)-retries0))

	if err := w.probes(context.Background(), sys, jobs, t); err != nil {
		return nil, fmt.Errorf("%s probes: %w", w.name, err)
	}
	if err := t.writeSpans(stem + ".spans.json"); err != nil {
		return nil, err
	}
	rep := &layerReport{phase: ph, spans: len(t.spans)}
	rep.values = layerValues(t, ph, plain, sys)
	rep.findings = findings(w, rep.values, ph)
	return rep, nil
}

func shardRetries(sys *system) int64 {
	if sys.coord == nil {
		return 0
	}
	var n int64
	for _, s := range sys.coord.Shards() {
		if s.Health != nil {
			n += s.Health.Retries
		}
	}
	return n
}

// perLayerMetrics are the traced run's metrics, in report order.  They
// must match BENCHMARK.json's per_layer list.  Times and counts marked
// "per pass" are totals over one pass of the job set; a layer that does
// not run on a workload, or runs where the benchmark cannot time it,
// reports 0.
var perLayerMetrics = []metricDef{
	{"library.build_s", "s"},
	{"library.versions", "count"},
	{"design.load_s", "s"},
	{"design.gates", "count"},
	{"problem.new_s", "s"},
	{"seed.s", "s"},
	{"seed.gate_trials", "count"},
	{"baseline.s", "s"},
	{"baseline.vectors", "count"},
	{"relax.build_s", "s"},
	{"relax.improved", "ratio"},
	{"relax.active_entries", "count"},
	{"frontier.s", "s"},
	{"frontier.tasks", "count"},
	{"tree.s", "s"},
	{"tree.state_nodes", "count"},
	{"tree.leaves", "count"},
	{"tree.gate_trials", "count"},
	{"tree.pruned", "count"},
	{"tree.prune_rate", "ratio"},
	{"tree.relax_bounds", "count"},
	{"tree.relax_prune_rate", "ratio"},
	{"tree.batch_lanes_per_sweep", "lanes"},
	{"tree.leaf_cache_hit_rate", "ratio"},
	{"tree.relaxbench_state_nodes", "count"},
	{"leaf.ns_per_leaf", "ns"},
	{"leaf.ns_per_trial", "ns"},
	{"bound.inc3_ns_per_probe", "ns"},
	{"bound.batch3_ns_per_sweep", "ns"},
	{"checkpoint.writes", "count"},
	{"checkpoint.write_ms_p50", "ms"},
	{"checkpoint.bytes", "B"},
	{"rpc.calls", "count"},
	{"rpc.ms_p50", "ms"},
	{"rpc.ms_p90", "ms"},
	{"rpc.bytes", "B"},
	{"rpc.retries", "count"},
	{"rpc.failed", "count"},
	{"lease.count", "count"},
	{"lease.tasks_mean", "count"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_s", "s"},
	{"jobs.baseline_builds", "count"},
	{"result.build_ms", "ms"},
	{"trace.overhead_s", "s"},
}

// layerValues derives the per-layer metrics from the tracer.
func layerValues(t *tracer, ph *phase, plain *summary, sys *system) map[string]float64 {
	self := t.selfTimes()
	passes := float64(len(ph.passEnds))
	c := t.counters
	perPass := func(v float64) float64 { return v / passes }
	sec := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return perPass(d.Seconds())
	}
	mean := func(name string) float64 { return mean(t.samples[name]) }
	p := func(name string, q float64) float64 { return quantile(t.samples[name], q) }

	v := map[string]float64{
		"library.build_s":             self["probe.library"].Seconds(),
		"library.versions":            c["library.versions"],
		"design.load_s":               sec("design.load", "design.map"),
		"design.gates":                perPass(c["design.gates"]),
		"problem.new_s":               sec("problem.new"),
		"seed.s":                      sec("seed"),
		"seed.gate_trials":            perPass(c["seed.gate_trials"]),
		"baseline.s":                  sec("baseline"),
		"baseline.vectors":            perPass(c["baseline.vectors"]),
		"relax.build_s":               sec("relax"),
		"relax.improved":              ratio(c["relax.improved"], c["relax.problems"]),
		"relax.active_entries":        ratio(c["relax.active_entries"], c["relax.problems"]),
		"frontier.s":                  sec("frontier") + self["probe.frontier"].Seconds(),
		"frontier.tasks":              perPass(c["frontier.tasks"]) + c["probe.frontier_tasks"],
		"tree.s":                      sec("tree"),
		"tree.state_nodes":            perPass(c["tree.state_nodes"]),
		"tree.leaves":                 perPass(c["tree.leaves"]),
		"tree.gate_trials":            perPass(c["tree.gate_trials"]),
		"tree.pruned":                 perPass(c["tree.pruned"]),
		"tree.prune_rate":             ratio(c["tree.pruned"], c["tree.state_nodes"]),
		"tree.relax_bounds":           perPass(c["tree.relax_bounds"]),
		"tree.relax_prune_rate":       ratio(c["tree.relax_pruned"], c["tree.relax_bounds"]),
		"tree.batch_lanes_per_sweep":  ratio(c["tree.batch_lanes"], c["tree.batch_sweeps"]),
		"tree.leaf_cache_hit_rate":    ratio(c["tree.leaf_cache_hits"], c["tree.leaves"]),
		"tree.relaxbench_state_nodes": ratio(c["relaxbench.state_nodes"], c["relaxbench.jobs"]),
		"leaf.ns_per_leaf":            ratio(float64(self["probe.leaf"].Nanoseconds()), c["leaf.descents"]),
		"leaf.ns_per_trial":           ratio(float64(self["probe.leaf"].Nanoseconds()), c["leaf.trials"]),
		"bound.inc3_ns_per_probe":     ratio(float64(self["probe.inc3"].Nanoseconds()), c["bound.inc3_probes"]),
		"bound.batch3_ns_per_sweep":   ratio(float64(self["probe.batch3"].Nanoseconds()), c["bound.batch3_sweeps"]),
		"checkpoint.writes":           perPass(c["checkpoint.writes"]),
		"checkpoint.write_ms_p50":     p("checkpoint.write_ms", 0.5),
		"checkpoint.bytes":            perPass(c["checkpoint.bytes"]),
		"rpc.calls":                   perPass(c["rpc.calls"]),
		"rpc.ms_p50":                  p("rpc.ms", 0.5),
		"rpc.ms_p90":                  p("rpc.ms", 0.9),
		"rpc.bytes":                   perPass(c["rpc.bytes"]),
		"rpc.retries":                 perPass(c["rpc.retries"]),
		"rpc.failed":                  perPass(c["rpc.failed"]),
		"lease.count":                 perPass(c["lease.count"]),
		"lease.tasks_mean":            ratio(c["lease.tasks"], c["lease.count"]),
		"jobs.queue_wait_ms":          mean("jobs.queue_wait_ms"),
		"jobs.run_s":                  mean("jobs.run_s"),
		"result.build_ms":             mean("result.build_ms"),
		"trace.overhead_s":            median(ph.summarize().PassCPU) - median(plain.PassCPU),
	}
	if sys.mgr != nil {
		v["jobs.baseline_builds"] = float64(sys.mgr.BaselineBuilds())
	}
	return v
}

// mean returns the mean of v; 0 when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
