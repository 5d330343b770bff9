package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/relax"
	"svto/internal/sim"
)

// CheckpointOptions configures crash-safe snapshotting of a tree search.
// When Path is set, the running search periodically serializes its frontier,
// incumbent and counters to Path (atomically: temp file + fsync + rename),
// writes a final snapshot if it is interrupted, and removes the file when it
// runs to completion.  Checkpointing implies the task-pool engine even for
// Workers == 1, so the unexplored frontier is always a well-defined set of
// subtree tasks.
type CheckpointOptions struct {
	// Path is the snapshot file.
	Path string
	// Interval is the periodic snapshot cadence; required when Path is
	// set.  Snapshot writes are cheap (the frontier is a few KB), but each
	// one re-serializes the incumbent, so sub-millisecond intervals only
	// make sense in tests.
	Interval time.Duration
	// Resume loads Path before searching and continues from it: the
	// incumbent is re-seeded, counters and the MaxLeaves/TimeLimit budgets
	// continue rather than reset, and workers restart from the saved
	// frontier.  A missing file is not an error (the run starts fresh); a
	// snapshot from a different circuit, library or objective fails with
	// ErrCheckpointMismatch.
	Resume bool
	// FS overrides the filesystem used for snapshot I/O (fault injection
	// in tests); nil uses the real one.
	FS checkpoint.FS
}

func (c CheckpointOptions) fs() checkpoint.FS {
	if c.FS != nil {
		return c.FS
	}
	return checkpoint.OS
}

// ckSplitDepth is the minimum auto-picked frontier depth when checkpointing
// is on: finer tasks bound the work lost to re-running the tasks that were
// in flight when the process died.
const ckSplitDepth = 6

// fingerprint hashes everything that defines the search space and objective
// of a Solve call — circuit structure, resolved cells and their choice-list
// shapes, algorithm, penalty, objective and ablations — so a resume against
// a different problem is rejected instead of silently exploring garbage.
// Execution knobs that do not change what a snapshot means (Workers,
// SplitDepth, TimeLimit, MaxLeaves, Seed, progress/checkpoint settings) are
// deliberately excluded: it is valid to resume with more workers or a
// larger budget.
func (p *Problem) fingerprint(opt Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	cc := p.CC
	wu(uint64(len(cc.PI)))
	for _, net := range cc.PI {
		wu(uint64(net))
	}
	wu(uint64(len(cc.Gates)))
	for i := range cc.Gates {
		g := &cc.Gates[i]
		wu(uint64(g.Op))
		wu(uint64(g.Out))
		wu(uint64(len(g.In)))
		for _, in := range g.In {
			wu(uint64(in))
		}
	}
	for _, c := range p.Timer.Cells {
		ws(c.Template.Name)
		wu(uint64(len(c.Versions)))
		wu(uint64(len(c.Choices)))
		for s := range c.Choices {
			wu(uint64(len(c.Choices[s])))
		}
	}
	wu(uint64(p.Obj))
	wu(uint64(opt.Algorithm))
	wu(math.Float64bits(opt.Penalty))
	// Bits 8 and 64 belonged to retired ablations; they stay unused so the
	// remaining bits keep their values and older snapshots still match.
	var ab uint64
	if p.Ablate.NoStateBounds {
		ab |= 1
	}
	if p.Ablate.FullSTA {
		ab |= 2
	}
	if p.Ablate.NoSortedVersions {
		ab |= 4
	}
	if p.Ablate.NoBatchEval {
		ab |= 16
	}
	if p.Ablate.NoRelaxBound {
		ab |= 32
	}
	wu(ab)
	return h.Sum64()
}

// loadResume reads and validates the snapshot named by opt.Checkpoint.  A
// missing file returns (nil, nil): there is nothing to resume and the run
// starts fresh, which is what makes "-resume" safe to pass unconditionally.
func (p *Problem) loadResume(opt Options) (*checkpoint.Snapshot, error) {
	snap, err := checkpoint.Load(opt.Checkpoint.fs(), opt.Checkpoint.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if want := p.fingerprint(opt); snap.Fingerprint != want {
		return nil, fmt.Errorf("%w: snapshot fingerprint %016x, problem fingerprint %016x (different circuit, library or options)",
			ErrCheckpointMismatch, snap.Fingerprint, want)
	}
	return snap, nil
}

// ResumedSearch is a fingerprint-validated snapshot translated back into
// search terms: what Solve resumes from, and what callers that drive the
// frontier themselves (the cluster coordinator) read.  SolveTasks builds one
// with only Tasks and SplitDepth set.
type ResumedSearch struct {
	// Seed is the snapshot's incumbent with its choice coordinates
	// re-resolved against this process's library; its Stats are the
	// crashed run's aggregated counters (partial in-flight task work
	// already rolled back).
	Seed *Solution
	// Tasks is the unexplored frontier.
	Tasks [][]sim.Value
	// SplitDepth is the depth the frontier was expanded at.
	SplitDepth int
	// Elapsed and LeavesUsed are the budgets the crashed run spent.
	Elapsed    time.Duration
	LeavesUsed int64
	// Failures carries over recorded worker deaths.
	Failures []WorkerFailure
	// mult is the snapshot's Lagrangian multiplier cache (nil when the
	// snapshot carried none — format v2, or a run whose engine was off),
	// used to warm-start the relaxation engine rebuild.
	mult *relax.Warm
}

// RestoreSearch converts a loaded snapshot (see checkpoint.Load) into the
// incumbent solution and frontier tasks of a resumed search, re-resolving
// the incumbent's (state, index) choice coordinates into this process's
// choice pointers and cross-checking the recorded leakage against the
// re-resolved choices as an end-to-end integrity check.  The caller has
// already matched SearchFingerprint against snap.Fingerprint.
func (p *Problem) RestoreSearch(snap *checkpoint.Snapshot) (*ResumedSearch, error) {
	mismatch := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrCheckpointMismatch, fmt.Sprintf(format, args...))
	}
	inc := snap.Incumbent
	if inc == nil {
		return nil, mismatch("snapshot has no incumbent")
	}
	if len(inc.State) != len(p.CC.PI) {
		return nil, mismatch("incumbent has %d input values, circuit has %d inputs", len(inc.State), len(p.CC.PI))
	}
	choices, err := p.Timer.ChoicesAt(inc.Choices)
	if err != nil {
		return nil, mismatch("%v", err)
	}
	leak, isub := leakOf(choices)
	if math.Abs(leak-inc.Leak) > 1e-6 || math.Abs(isub-inc.Isub) > 1e-6 {
		return nil, mismatch("incumbent leakage %.9g/%.9g disagrees with re-resolved choices %.9g/%.9g",
			inc.Leak, inc.Isub, leak, isub)
	}
	rs := &ResumedSearch{
		Seed: &Solution{
			State:   append([]bool(nil), inc.State...),
			Choices: choices,
			Leak:    inc.Leak,
			Isub:    inc.Isub,
			Delay:   inc.Delay,
		},
		Elapsed:    snap.Elapsed,
		LeavesUsed: snap.LeavesUsed,
		SplitDepth: snap.SplitDepth,
	}
	// The snapshot's counters seed the shared totals: a resume continues
	// them rather than resetting.
	rs.Seed.Stats.Counters().Set(snap.Stats)
	if rs.SplitDepth < 0 || rs.SplitDepth > len(p.piOrder) {
		return nil, mismatch("split depth %d out of range (%d inputs)", rs.SplitDepth, len(p.piOrder))
	}
	for _, f := range snap.Failures {
		rs.Failures = append(rs.Failures, WorkerFailure{Worker: int(f.Worker), Err: f.Err, Stack: f.Stack})
	}
	for ti, vec := range snap.Frontier {
		if len(vec) != len(p.CC.PI) {
			return nil, mismatch("frontier task %d has %d values, circuit has %d inputs", ti, len(vec), len(p.CC.PI))
		}
		task := make([]sim.Value, len(vec))
		for i, b := range vec {
			if b > uint8(sim.X) {
				return nil, mismatch("frontier task %d holds invalid value %d", ti, b)
			}
			task[i] = sim.Value(b)
		}
		rs.Tasks = append(rs.Tasks, task)
	}
	if snap.HasMultipliers {
		rs.mult = relax.NewWarm()
		for mi, m := range snap.Multipliers {
			if m.Gate < 0 || int(m.Gate) >= len(p.Timer.Cells) {
				return nil, mismatch("multiplier %d names gate %d, circuit has %d gates", mi, m.Gate, len(p.Timer.Cells))
			}
			if ns := p.Timer.Cells[m.Gate].Template.NumStates(); m.State < 0 || int(m.State) >= ns {
				return nil, mismatch("multiplier %d names state %d of gate %d (%d states)", mi, m.State, m.Gate, ns)
			}
			if math.IsNaN(m.Lambda) || math.IsInf(m.Lambda, 0) || m.Lambda < 0 {
				return nil, mismatch("multiplier %d holds invalid lambda %v", mi, m.Lambda)
			}
			rs.mult.Set(int(m.Gate), int(m.State), m.Lambda)
		}
	}
	return rs, nil
}

// buildSnapshot captures one consistent point of the running search: the
// frontier is whatever the pool has not finished (in-flight tasks count as
// unexplored — the incumbent is monotone, so re-exploring them on resume
// can only re-derive or improve the result, never regress it).
func (sh *sharedSearch) buildSnapshot(tp *taskPool) (*checkpoint.Snapshot, error) {
	sh.mu.Lock()
	best := sh.best
	sh.mu.Unlock()
	coords, err := sh.p.Timer.ChoiceCoords(best.Choices)
	if err != nil {
		return nil, err
	}
	tasks := tp.remaining()
	frontier := make([][]byte, len(tasks))
	for ti, task := range tasks {
		vec := make([]byte, len(task))
		for i, v := range task {
			vec[i] = byte(v)
		}
		frontier[ti] = vec
	}
	sh.failMu.Lock()
	failures := make([]checkpoint.WorkerFailure, len(sh.failures))
	for i, f := range sh.failures {
		failures[i] = checkpoint.WorkerFailure{Worker: int32(f.Worker), Err: f.Err, Stack: f.Stack}
	}
	sh.failMu.Unlock()
	// The multiplier cache rides along so a resume can warm-start the
	// relaxation engine rebuild.  HasMultipliers distinguishes "engine was
	// on, these are its non-zero multipliers (possibly none)" from "no cache
	// recorded" — a coordinator-written snapshot says the latter and the
	// resuming process rebuilds cold.
	var mult []checkpoint.Multiplier
	if sh.relax != nil {
		for _, m := range sh.relax.Multipliers() {
			mult = append(mult, checkpoint.Multiplier{Gate: m.Gate, State: m.State, Lambda: m.Lambda})
		}
	}
	return &checkpoint.Snapshot{
		Fingerprint:    sh.fprint,
		Elapsed:        sh.priorElapsed + time.Since(sh.start),
		SplitDepth:     sh.splitDepth,
		LeavesUsed:     sh.leafTickets.Load(),
		Stats:          sh.counters(),
		Failures:       failures,
		HasMultipliers: sh.relax != nil,
		Multipliers:    mult,
		Incumbent: &checkpoint.Incumbent{
			State:   best.State,
			Choices: coords,
			Leak:    best.Leak,
			Isub:    best.Isub,
			Delay:   best.Delay,
		},
		Frontier: frontier,
	}, nil
}

// writeCheckpoint serializes and atomically writes one snapshot.  Failures
// are recorded in the stats but never abort the search: losing a snapshot
// costs redo work after a crash, aborting would cost the whole run now.
func (sh *sharedSearch) writeCheckpoint(tp *taskPool) {
	sh.ckWrites.Add(1)
	snap, err := sh.buildSnapshot(tp)
	if err == nil {
		err = checkpoint.Save(sh.ck.fs(), sh.ck.Path, snap)
	}
	if err != nil {
		sh.ckErrors.Add(1)
	}
}
