package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/relax"
	"svto/internal/sim"
	"svto/internal/sta"
	"svto/internal/tech"
	"svto/internal/techmap"
	"svto/pkg/svto"
)

// tracedCompile is svto.Compile split into its layer calls: parse the
// .bench text, map it when some gate has no library cell, and build the
// search problem.
func tracedCompile(t *tracer, root, jobID int64, lib *library.Library, req svto.Request) (*svto.Compiled, error) {
	var circ *netlist.Circuit
	err := t.do("design.load", root, jobID, func() (err error) {
		circ, err = netlist.ReadBench(strings.NewReader(req.Design.Bench), req.Design.Name)
		return err
	})
	if err != nil {
		return nil, err
	}
	mapped := true
	for i := range circ.Gates {
		if circ.Gates[i].CellName() == "" {
			mapped = false
		}
	}
	if !mapped {
		if err := t.do("design.map", root, jobID, func() (err error) {
			circ, err = techmap.Map(circ)
			return err
		}); err != nil {
			return nil, err
		}
	}
	t.add("design.gates", float64(len(circ.Gates)))
	var prob *core.Problem
	if err := t.do("problem.new", root, jobID, func() (err error) {
		prob, err = core.NewProblem(circ, lib, sta.DefaultConfig(), core.ObjTotal)
		return err
	}); err != nil {
		return nil, err
	}
	return &svto.Compiled{Circ: circ, Lib: lib, Prob: prob}, nil
}

// tracedSeed runs the Heuristic 1 descent that answers an H1 job and
// seeds every tree search.
func tracedSeed(t *tracer, root, jobID int64, comp *svto.Compiled, penalty float64) (*core.Solution, error) {
	var sol *core.Solution
	err := t.do("seed", root, jobID, func() (err error) {
		sol, err = comp.Prob.SeedSolution(penalty)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.add("seed.gate_trials", float64(sol.Stats.GateTrials))
	t.add("occupancy.sweeps", float64(sol.Stats.BatchSweeps))
	t.add("occupancy.lanes", float64(sol.Stats.BatchLanes))
	return sol, nil
}

// tracedResult is Compiled.BuildResult with the random-vector baseline
// timed as its own span, as Run computes it.
func tracedResult(t *tracer, root, jobID int64, comp *svto.Compiled, req svto.Request, sol *core.Solution) (*svto.Result, error) {
	bare := req
	bare.Search.BaselineVectors = 0
	id := t.begin("result.build", root, jobID)
	res, err := comp.BuildResult(bare, sol)
	d := t.end(id)
	if err != nil {
		return nil, err
	}
	t.sample("result.build_ms", float64(d)/float64(time.Millisecond))
	if n := req.Search.BaselineVectors; n > 0 {
		seed := req.Search.Seed
		if seed == 0 {
			seed = 1
		}
		if err := t.do("baseline", root, jobID, func() (err error) {
			res.BaselineNA, err = comp.Prob.AverageRandomLeak(seed, n)
			return err
		}); err != nil {
			return nil, err
		}
		t.add("baseline.vectors", float64(n))
	}
	return res, nil
}

func tracedH1(_ context.Context, sys *system, j job, t *tracer, jobID int64) (*svto.Result, error) {
	root := t.begin("job", 0, jobID)
	defer t.end(root)
	comp, err := tracedCompile(t, root, jobID, sys.lib, j.req)
	if err != nil {
		return nil, err
	}
	sol, err := tracedSeed(t, root, jobID, comp, j.req.Search.Penalty)
	if err != nil {
		return nil, err
	}
	return tracedResult(t, root, jobID, comp, j.req, sol)
}

func tracedLoose(ctx context.Context, sys *system, j job, t *tracer, jobID int64) (*svto.Result, error) {
	return tracedTree(ctx, sys, j, t, jobID, true)
}

func tracedTight(ctx context.Context, sys *system, j job, t *tracer, jobID int64) (*svto.Result, error) {
	return tracedTree(ctx, sys, j, t, jobID, false)
}

// looseBatch is the task count of one SolveTasks call in the traced
// tree-loose job; a snapshot of the remaining frontier is written before
// each batch.
const looseBatch = 16

// tracedTree runs a tree search as the coordinator splits it: seed, relax
// build (a zero-task SolveTasks, which fills the Problem's relax cache
// with the search's exact configuration), frontier expansion, and
// SolveTasks over the frontier.  With pooled set it expands to the depth a
// checkpointed Workers=1 search uses and drains the frontier in batches,
// writing a snapshot before each; otherwise it expands nothing and drains
// the whole tree as one task, the sequential search's visit order.  Either
// way the node, leaf and prune counts equal the untraced Solve's.
func tracedTree(ctx context.Context, sys *system, j job, t *tracer, jobID int64, pooled bool) (*svto.Result, error) {
	root := t.begin("job", 0, jobID)
	defer t.end(root)
	comp, err := tracedCompile(t, root, jobID, sys.lib, j.req)
	if err != nil {
		return nil, err
	}
	opt, err := comp.CoreOptions(j.req)
	if err != nil {
		return nil, err
	}
	depth, batch := 0, 1
	if pooled {
		depth, batch = core.DefaultSplitDepth(1, len(comp.Prob.CC.PI)), looseBatch
	}
	opt.SplitDepth = depth
	seed, err := tracedSeed(t, root, jobID, comp, opt.Penalty)
	if err != nil {
		return nil, err
	}
	if err := t.do("relax", root, jobID, func() error {
		_, err := comp.Prob.SolveTasks(ctx, opt, zeroStats(seed), nil)
		return err
	}); err != nil {
		return nil, err
	}
	var tasks [][]sim.Value
	var exp core.SearchStats
	if err := t.do("frontier", root, jobID, func() (err error) {
		tasks, exp, err = comp.Prob.ExpandFrontier(opt, seed, depth)
		return err
	}); err != nil {
		return nil, err
	}
	t.add("frontier.tasks", float64(len(tasks)))

	total := seed.Stats
	addStats(&total, exp)
	best := seed
	ckpt := filepath.Join(sys.tmp, fmt.Sprintf("traced%d.ckpt", jobID))
	for lo := 0; lo < len(tasks); lo += batch {
		hi := min(lo+batch, len(tasks))
		if pooled {
			ck := t.begin("checkpoint", root, jobID)
			sys.ckfs.enter(jobID, ck)
			err := saveSnapshot(sys.ckfs, ckpt, comp, opt, best, total, tasks[lo:])
			sys.ckfs.leave()
			t.end(ck)
			if err != nil {
				return nil, err
			}
		}
		var tr *core.TaskResult
		if err := t.do("tree", root, jobID, func() (err error) {
			tr, err = comp.Prob.SolveTasks(ctx, opt, zeroStats(best), tasks[lo:hi])
			return err
		}); err != nil {
			return nil, err
		}
		if len(tr.Remaining) > 0 {
			return nil, fmt.Errorf("%d tasks left unexplored", len(tr.Remaining))
		}
		addStats(&total, tr.Best.Stats)
		best = tr.Best
	}
	if pooled {
		if err := checkpoint.Remove(sys.ckfs, ckpt); err != nil {
			return nil, err
		}
	}
	countTree(t, total)
	sol := *best
	sol.Stats = total
	res, err := tracedResult(t, root, jobID, comp, j.req, &sol)
	if err == nil && j.key == relaxbenchKey {
		t.add("relaxbench.state_nodes", float64(res.Stats.StateNodes))
		t.add("relaxbench.jobs", 1)
	}
	return res, err
}

// zeroStats copies sol with its counters cleared, the form SolveTasks
// takes its starting incumbent in.
func zeroStats(sol *core.Solution) *core.Solution {
	z := *sol
	z.Stats = core.SearchStats{}
	return &z
}

func addStats(dst *core.SearchStats, s core.SearchStats) {
	dst.StateNodes += s.StateNodes
	dst.GateTrials += s.GateTrials
	dst.Leaves += s.Leaves
	dst.Pruned += s.Pruned
	dst.LeafCacheHits += s.LeafCacheHits
	dst.BatchSweeps += s.BatchSweeps
	dst.BatchLanes += s.BatchLanes
	dst.RelaxBounds += s.RelaxBounds
	dst.RelaxPruned += s.RelaxPruned
}

// countTree adds a whole job's search counters to the tree layer.
func countTree(t *tracer, s core.SearchStats) {
	t.add("tree.state_nodes", float64(s.StateNodes))
	t.add("tree.leaves", float64(s.Leaves))
	t.add("tree.gate_trials", float64(s.GateTrials))
	t.add("tree.pruned", float64(s.Pruned))
	t.add("tree.relax_bounds", float64(s.RelaxBounds))
	t.add("tree.relax_pruned", float64(s.RelaxPruned))
	t.add("tree.batch_sweeps", float64(s.BatchSweeps))
	t.add("tree.batch_lanes", float64(s.BatchLanes))
	t.add("tree.leaf_cache_hits", float64(s.LeafCacheHits))
	t.add("occupancy.sweeps", float64(s.BatchSweeps))
	t.add("occupancy.lanes", float64(s.BatchLanes))
}

// saveSnapshot writes the snapshot a coordinator would hold at this point
// of the search: counters so far, the incumbent and the unexplored tasks.
func saveSnapshot(fs checkpoint.FS, path string, comp *svto.Compiled, opt core.Options, best *core.Solution, s core.SearchStats, tasks [][]sim.Value) error {
	coords, err := comp.Prob.IncumbentCoords(best)
	if err != nil {
		return err
	}
	snap := &checkpoint.Snapshot{
		Fingerprint: comp.Prob.SearchFingerprint(opt),
		SplitDepth:  opt.SplitDepth,
		Stats: checkpoint.Stats{
			StateNodes: s.StateNodes, GateTrials: s.GateTrials, Leaves: s.Leaves, Pruned: s.Pruned,
			LeafCacheHits: s.LeafCacheHits, BatchSweeps: s.BatchSweeps, BatchLanes: s.BatchLanes,
			RelaxBounds: s.RelaxBounds, RelaxPruned: s.RelaxPruned,
		},
		Incumbent: &checkpoint.Incumbent{
			State: best.State, Choices: coords, Leak: best.Leak, Isub: best.Isub, Delay: best.Delay,
		},
	}
	for _, task := range tasks {
		b := make([]byte, len(task))
		for i, v := range task {
			b[i] = byte(v)
		}
		snap.Frontier = append(snap.Frontier, b)
	}
	return checkpoint.Save(fs, path, snap)
}

// tracedCluster submits the job like the untraced run, with the shards'
// RPCs and the coordinator's snapshot writes attributed to it, and reads
// the queue and run times from the job record.
func tracedCluster(ctx context.Context, sys *system, j job, t *tracer, jobID int64) (*svto.Result, error) {
	root := t.begin("job", 0, jobID)
	sys.rpc.enter(jobID, root)
	sys.ckfs.enter(jobID, root)
	res, rec, err := submitAndWait(ctx, sys, j)
	sys.rpc.leave()
	sys.ckfs.leave()
	t.end(root)
	if err != nil {
		return nil, err
	}
	t.sample("jobs.queue_wait_ms", float64(rec.Started.Sub(rec.Created))/float64(time.Millisecond))
	t.sample("jobs.run_s", rec.Finished.Sub(rec.Started).Seconds())
	countTree(t, core.SearchStats{
		StateNodes: res.Stats.StateNodes, GateTrials: res.Stats.GateTrials, Leaves: res.Stats.Leaves,
		Pruned: res.Stats.Pruned, LeafCacheHits: res.Stats.LeafCacheHits,
		BatchSweeps: res.Stats.BatchSweeps, BatchLanes: res.Stats.BatchLanes,
		RelaxBounds: res.Stats.RelaxBounds, RelaxPruned: res.Stats.RelaxPruned,
	})
	return res, nil
}

// Probes: per-layer figures measured outside the jobs, once per traced
// run, on the workload's own designs.

func h1Probes(ctx context.Context, sys *system, jobs []job, t *tracer) error {
	// One design per profile: the 5% request of each.
	var designs []job
	for _, j := range jobs {
		if j.req.Search.BaselineVectors > 0 {
			designs = append(designs, j)
		}
	}
	return runProbes(ctx, sys, designs, t, 4, false, false)
}

func looseProbes(ctx context.Context, sys *system, jobs []job, t *tracer) error {
	return runProbes(ctx, sys, jobs, t, 64, true, false)
}

func tightProbes(ctx context.Context, sys *system, jobs []job, t *tracer) error {
	return runProbes(ctx, sys, jobs, t, 16, true, false)
}

func clusterProbes(ctx context.Context, sys *system, jobs []job, t *tracer) error {
	return runProbes(ctx, sys, jobs, t, 64, false, true)
}

// runProbes times an uncached library build, then per job: leafCount
// single-leaf descents, the bound engines, and optionally the relax build
// (its improved flag and active entries) and the frontier expansion at
// the coordinator's split depth.
func runProbes(ctx context.Context, sys *system, jobs []job, t *tracer, leafCount int, withRelax, withFrontier bool) error {
	var lib *library.Library
	if err := t.do("probe.library", 0, 0, func() (err error) {
		lib, err = library.Build(tech.Default(), library.DefaultOptions())
		return err
	}); err != nil {
		return err
	}
	t.add("library.versions", float64(lib.TotalVersions()))

	lanes := int(math.Round(ratio(t.counters["occupancy.lanes"], t.counters["occupancy.sweeps"])))
	rng := rand.New(rand.NewSource(1))
	for _, j := range jobs {
		comp, err := svto.Compile(j.req, sys.base)
		if err != nil {
			return err
		}
		if err := leafProbe(ctx, t, comp, j.req, leafCount, rng); err != nil {
			return fmt.Errorf("leaf probe %s: %w", j.key, err)
		}
		if err := boundProbe(t, comp, lanes, rng); err != nil {
			return fmt.Errorf("bound probe %s: %w", j.key, err)
		}
		if withRelax {
			var eng *relax.Engine
			if err := t.do("probe.relax", 0, 0, func() (err error) {
				eng, err = relax.Build(comp.Prob.Timer, relax.Config{
					Obj:      func(ch *library.Choice) float64 { return ch.Leak },
					Budget:   comp.Prob.Budget(j.req.Search.Penalty),
					DelayEps: core.DelayEps,
				})
				return err
			}); err != nil {
				return err
			}
			t.add("relax.problems", 1)
			if eng.Improved() {
				t.add("relax.improved", 1)
			}
			t.add("relax.active_entries", float64(eng.ActiveEntries()))
		}
		if withFrontier {
			opt, err := comp.CoreOptions(j.req)
			if err != nil {
				return err
			}
			seed, err := comp.Prob.SeedSolution(opt.Penalty)
			if err != nil {
				return err
			}
			depth := core.DefaultSplitDepth(sys.shards, len(comp.Prob.CC.PI))
			var tasks [][]sim.Value
			if err := t.do("probe.frontier", 0, 0, func() (err error) {
				tasks, _, err = comp.Prob.ExpandFrontier(opt, seed, depth)
				return err
			}); err != nil {
				return err
			}
			t.add("probe.frontier_tasks", float64(len(tasks)))
		}
	}
	return nil
}

// leafProbe evaluates count random complete input states, each one
// gate-tree descent, through SolveTasks.  The starting incumbent is
// unbeatable-from-above (infinite leakage) so no task is pruned, and the
// relax bound is switched off on this probe-only Problem because a
// complete state never consults it.
func leafProbe(ctx context.Context, t *tracer, comp *svto.Compiled, req svto.Request, count int, rng *rand.Rand) error {
	prob := comp.Prob
	prob.Ablate.NoRelaxBound = true
	opt, err := comp.CoreOptions(req)
	if err != nil {
		return err
	}
	opt.Algorithm = core.AlgHeuristic2
	opt.Workers = 1
	opt.SplitDepth = len(prob.CC.PI)
	seed, err := prob.SeedSolution(opt.Penalty)
	if err != nil {
		return err
	}
	inc := zeroStats(seed)
	inc.Leak = math.Inf(1)
	tasks := make([][]sim.Value, count)
	for i := range tasks {
		tasks[i] = make([]sim.Value, len(prob.CC.PI))
		for k := range tasks[i] {
			tasks[i][k] = sim.Value(rng.Intn(2))
		}
	}
	var tr *core.TaskResult
	if err := t.do("probe.leaf", 0, 0, func() (err error) {
		tr, err = prob.SolveTasks(ctx, opt, inc, tasks)
		return err
	}); err != nil {
		return err
	}
	st := tr.Best.Stats
	t.add("leaf.descents", float64(st.Leaves-st.LeafCacheHits))
	t.add("leaf.trials", float64(st.GateTrials))
	return nil
}

// boundProbe times the two state-tree bound engines on tables built from
// the problem's cells (per gate and state, the least-leakage choice):
// sim.Inc3 Assign+Bound+Undo down one random path, and sim.Batch3 sweeps
// at the workload's measured lane occupancy.
func boundProbe(t *tracer, comp *svto.Compiled, lanes int, rng *rand.Rand) error {
	cc := comp.Prob.CC
	known := make([][]float64, len(cc.Gates))
	unknown := make([]float64, len(cc.Gates))
	for gi, c := range comp.Prob.Timer.Cells {
		known[gi] = make([]float64, len(c.Choices))
		unknown[gi] = math.Inf(1)
		for s, ch := range c.Choices {
			known[gi][s] = ch[0].Leak
			unknown[gi] = math.Min(unknown[gi], ch[0].Leak)
		}
	}
	inc, err := sim.NewInc3(cc, known, unknown)
	if err != nil {
		return err
	}
	bat, err := sim.NewBatch3(cc, known, unknown)
	if err != nil {
		return err
	}
	n := len(cc.PI)
	path := make([]sim.Value, n)
	for i := range path {
		path[i] = sim.Value(rng.Intn(2))
	}
	const minProbe = 20 * time.Millisecond
	probes := 0
	id := t.begin("probe.inc3", 0, 0)
	for start := time.Now(); time.Since(start) < minProbe; {
		for i, v := range path {
			inc.Assign(i, v)
			_ = inc.Bound()
		}
		for range path {
			inc.Undo()
		}
		probes += n
	}
	t.end(id)
	t.add("bound.inc3_probes", float64(probes))

	lanes = max(1, min(lanes, sim.Lanes))
	prefix := n / 2
	bat.Reset()
	for i := 0; i < prefix; i++ {
		bat.SetAll(i, path[i])
	}
	for l := 0; l < lanes && prefix < n; l++ {
		bat.SetLane(prefix, l, sim.Value(l%2))
	}
	sweeps := 0
	id = t.begin("probe.batch3", 0, 0)
	for start := time.Now(); time.Since(start) < minProbe; sweeps++ {
		bat.Sweep(lanes)
	}
	t.end(id)
	t.add("bound.batch3_sweeps", float64(sweeps))
	return nil
}

// findings states, with the traced numbers, whether the ROADMAP's
// profile facts hold on this workload.
func findings(w *workload, v map[string]float64, ph *phase) []string {
	verdict := func(ok bool) string {
		if ok {
			return "confirmed"
		}
		return "refuted"
	}
	okJobs := ph.attempted() - ph.failed()
	out := []string{fmt.Sprintf("traced jobs matching the reference optimum and node/leaf/prune counts: %d of %d", okJobs, ph.attempted())}
	switch w.name {
	case "tree-loose":
		out = append(out,
			fmt.Sprintf("prune rate is 0: %s (%.4g, %.0f of %.0f nodes)", verdict(v["tree.pruned"] == 0), v["tree.prune_rate"], v["tree.pruned"], v["tree.state_nodes"]),
			fmt.Sprintf("relax engine built then discarded: %s (%.3g s per build, improved %.0f%%, %.0f relax probes)",
				verdict(v["relax.improved"] == 0 && v["tree.relax_bounds"] == 0), v["relax.build_s"], 100*v["relax.improved"], v["tree.relax_bounds"]),
			fmt.Sprintf("Batch3 lanes per sweep are low: %s (%.3g of %d)", verdict(v["tree.batch_lanes_per_sweep"] < sim.Lanes/4), v["tree.batch_lanes_per_sweep"], sim.Lanes))
	case "tree-tight":
		out = append(out,
			fmt.Sprintf("the cascade prunes most nodes: %s (%.1f%% of %.0f nodes, relax probes prune %.1f%%)",
				verdict(v["tree.prune_rate"] > 0.5), 100*v["tree.prune_rate"], v["tree.state_nodes"], 100*v["tree.relax_prune_rate"]))
	}
	return out
}
