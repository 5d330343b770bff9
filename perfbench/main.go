// Command perfbench is the optimizer's benchmark.  It runs one named
// workload through the public entry points (svto.Run and svto.Compile,
// core.Problem, and jobs.Manager routing to an in-process
// dist.Coordinator), checks every result against the committed references
// in perfbench/ref, and prints the workload's metrics.  Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload h1-suite --seed 1 --seconds 10 --trace 0
//
// A run times three cold set-ups of the workload, two of them in fresh
// processes, and runs one untimed warm-up pass.  With --trace 0 it then
// runs the workload untraced and the result line carries the end-to-end
// metrics.  With --trace 1 it runs the workload untraced for half the
// time and traced for the other half; the result line carries the
// per-layer metrics, and the span file and CPU profile of the traced half
// are written beside the run record in <work>/results.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	work      string
	refs      string
	writeRefs bool
}

func run() error {
	var o options
	var traceFlag int
	var setupOnlyFlag bool
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the job order of each pass is drawn from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time; passes over the job set repeat until it is spent")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced phase and reports per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for run records, spans, profiles and temporary state")
	flag.StringVar(&o.refs, "refs", filepath.Join("perfbench", "ref"), "directory of the reference results")
	flag.BoolVar(&o.writeRefs, "write-refs", false, "run every job once and write the workload's reference file instead of measuring")
	flag.BoolVar(&setupOnlyFlag, "setup-only", false, "internal: time one set-up of the workload and print it")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	tmp, err := newTempDir(o.work)
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if setupOnlyFlag {
		return setupOnly(w, tmp)
	}

	jobs, err := w.jobs()
	if err != nil {
		return fmt.Errorf("generating %s inputs: %w", w.name, err)
	}
	if o.writeRefs {
		return writeReferences(w, jobs, tmp, o.refs)
	}
	refs, err := loadReferences(o.refs, w.refName())
	if err != nil {
		return err
	}
	return measure(o, w, jobs, refs, tmp)
}

// newTempDir makes a fresh directory for one run's temporary state (job
// records, checkpoints) under work/tmp.
func newTempDir(work string) (string, error) {
	base := filepath.Join(work, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// setupSamples is the number of cold set-ups a run times: one in this
// process and the rest in fresh processes of the benchmark that set the
// workload up and exit, so that process-wide caches such as the
// characterized library are cold in each.
const setupSamples = 3

// setupSample is one timed set-up.
type setupSample struct {
	CPU  float64 `json:"cpu_s"`
	Wall float64 `json:"wall_s"`
}

// timedSetup sets the workload up and times it.
func timedSetup(w *workload, tmp string, trace bool) (*system, setupSample, error) {
	t0, c0 := time.Now(), cpuTime()
	sys, err := w.setup(tmp, trace)
	if err != nil {
		return nil, setupSample{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return sys, setupSample{CPU: (cpuTime() - c0).Seconds(), Wall: time.Since(t0).Seconds()}, nil
}

// measure times setupSamples-1 set-ups in fresh processes, one after
// another, then sets the workload up in this process and runs one
// untimed warm-up pass.  With --trace 0 it then measures untraced passes
// for the whole time; with --trace 1 it runs untraced, then traced, for
// half the time each, so the tracing overhead compares like with like.
// Then it prints the report and the result line.
func measure(o options, w *workload, jobs []job, refs references, tmp string) error {
	var setups []setupSample
	for i := 1; i < setupSamples; i++ {
		s, err := runSetupProcess(o, w)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	sys, s, err := timedSetup(w, tmp, o.trace)
	if err != nil {
		return err
	}
	defer sys.close()
	setups = append(setups, s)
	warm := runPhase(w, sys, jobs, refs, o.seed, 0, nil)

	span := time.Duration(o.seconds * float64(time.Second))
	rep := report{o: o, workload: w.name}
	if o.trace {
		span /= 2
	}
	rep.plain = runPhase(w, sys, jobs, refs, o.seed, span, nil).summarize()
	rep.plain.count(warm)
	for _, s := range setups {
		rep.plain.SetupCPU = append(rep.plain.SetupCPU, s.CPU)
		rep.plain.SetupWall = append(rep.plain.SetupWall, s.Wall)
	}
	if o.trace {
		if rep.layers, err = tracedPhase(o, w, sys, jobs, refs, span, &rep.plain); err != nil {
			return err
		}
	}
	return rep.emit()
}

// runSetupProcess runs a fresh process of this binary that sets the
// workload up once, and decodes the sample it prints as its last line.
func runSetupProcess(o options, w *workload) (setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupSample{}, err
	}
	cmd := exec.Command(exe, "--setup-only", "--workload", w.name, "--work", o.work)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupSample{}, fmt.Errorf("set-up process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s setupSample
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return setupSample{}, fmt.Errorf("set-up process: decoding its sample: %w", err)
	}
	return s, nil
}

// setupOnly is the body of a set-up process: it times one set-up, tears
// it down and prints the sample.
func setupOnly(w *workload, tmp string) error {
	sys, s, err := timedSetup(w, tmp, false)
	if err != nil {
		return err
	}
	sys.close()
	out, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// provenance identifies the host and build behind a record.
type provenance struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Time       string  `json:"time"`
}

func currentProvenance(o options) provenance {
	return provenance{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads the checked-out commit from .git without running git;
// an exported tree without .git reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects everything one run prints and records.
type report struct {
	o        options
	workload string
	plain    summary
	layers   *layerReport
}

func (r *report) emit() error {
	prov := currentProvenance(r.o)
	e2e := r.plain.endToEnd()
	attempted, failed := r.plain.Attempted, r.plain.Failed
	var layerVals map[string]float64
	if r.layers != nil {
		attempted += r.layers.phase.attempted()
		failed += r.layers.phase.failed()
		layerVals = r.layers.values
	}

	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", r.workload, r.o.seed, r.o.seconds, r.o.trace)
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		prov.CPU, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.Commit)
	fmt.Printf("untraced: %d passes, %d jobs (%d beyond the CPU p90), set-up CPU %v, wall %v\n",
		len(r.plain.PassCPU), r.plain.Attempted, r.plain.beyondP90(), fmtSeconds(r.plain.SetupCPU), fmtSeconds(r.plain.SetupWall))
	for _, m := range endToEndMetrics {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	wall := r.plain.wallFigures()
	for _, m := range wallMetrics {
		fmt.Printf("  %-28s %14.6g %s (wall clock, unbounded)\n", m.name, wall[m.name], m.unit)
	}
	fmt.Printf("  %-28s %14.6g %s\n", "failed_ratio", r.plain.failedRatio(), "ratio")
	if r.layers != nil {
		fmt.Printf("traced: %d passes, %d jobs, %d spans\n",
			len(r.layers.phase.passEnds), r.layers.phase.attempted(), r.layers.spans)
		for _, m := range perLayerMetrics {
			fmt.Printf("  %-28s %14.6g %s\n", m.name, layerVals[m.name], m.unit)
		}
		for _, f := range r.layers.findings {
			fmt.Println("  " + f)
		}
	}
	for _, msg := range r.failures() {
		fmt.Println("FAIL " + msg)
	}

	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if r.o.trace {
		for _, m := range perLayerMetrics {
			line.Metrics[m.name] = metricValue{layerVals[m.name], m.unit}
		}
	} else {
		for _, m := range endToEndMetrics {
			line.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	if err := r.writeRecord(prov, e2e, line); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func (r *report) failures() []string {
	msgs := r.plain.Failures
	if r.layers != nil {
		msgs = append(append([]string(nil), msgs...), r.layers.phase.failures...)
	}
	if len(msgs) > 10 {
		msgs = append(msgs[:10:10], fmt.Sprintf("... and %d more", len(msgs)-10))
	}
	return msgs
}

// writeRecord stores the run's provenance and every metric it measured in
// <work>/results, next to the traced run's spans and profile.
func (r *report) writeRecord(prov provenance, e2e map[string]float64, line resultLine) error {
	rec := map[string]any{
		"workload":     r.workload,
		"provenance":   prov,
		"setup_cpu_s":  r.plain.SetupCPU,
		"setup_wall_s": r.plain.SetupWall,
		"end_to_end":   e2e,
		"wall_clock":   r.plain.wallFigures(),
		"failed_ratio": r.plain.failedRatio(),
		"pass_cpu_s":   r.plain.PassCPU,
		"pass_wall_s":  r.plain.PassWall,
		"jobs":         r.plain.Attempted,
		"beyond_p90":   r.plain.beyondP90(),
		"result":       line,
	}
	if r.layers != nil {
		rec["per_layer"] = r.layers.values
		rec["findings"] = r.layers.findings
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(r.o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.o.seed, boolInt(r.o.trace))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fmtSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle value (the mean of the two middle values for
// an even count) without reordering v.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
