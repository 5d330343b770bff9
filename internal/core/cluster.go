package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"svto/internal/sim"
)

// This file is the search engine's distribution surface: the hooks a
// cluster coordinator and its worker shards use to run one tree search
// across processes.  The unit of distribution is the same 3-valued subtree
// task vector the checkpoint format persists — a coordinator expands the
// root frontier once (ExpandFrontier), hands task batches to shards, and
// each shard drains its batch with the ordinary pool engine (SolveTasks).
// The in-process atomic incumbent generalizes to a SharedIncumbent that a
// network pump can publish into and subscribe from; monotonicity makes
// late, duplicate or crossing broadcasts harmless.

// SharedIncumbent is a monotone best-solution cell shared by concurrent
// searches (and, through a network pump, by searches in other processes).
// Offers install strictly better solutions only — same objective-then-leak
// ordering the in-process incumbent uses — so replayed or out-of-order
// broadcasts cannot regress it.  Subscribers are notified outside the lock
// on every installation, except the subscriber the offer originated from
// (which already knows), breaking notification cycles.
type SharedIncumbent struct {
	p      *Problem
	mu     sync.Mutex
	best   *Solution
	epoch  int64
	nextID int
	subs   map[int]func(*Solution)
}

// NewSharedIncumbent creates an empty incumbent cell for p's objective.
func NewSharedIncumbent(p *Problem) *SharedIncumbent {
	return &SharedIncumbent{p: p, subs: make(map[int]func(*Solution))}
}

// Subscribe registers fn to run on every installation (from any goroutine,
// outside the incumbent's lock) and returns the subscriber id to pass to
// OfferFrom and Unsubscribe.  fn must be safe for concurrent calls.
func (s *SharedIncumbent) Subscribe(fn func(*Solution)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	s.subs[id] = fn
	return id
}

// Unsubscribe removes a subscriber.
func (s *SharedIncumbent) Unsubscribe(id int) {
	s.mu.Lock()
	delete(s.subs, id)
	s.mu.Unlock()
}

// Best returns the current incumbent (nil before the first offer).  The
// returned Solution is shared: callers must not mutate it.
func (s *SharedIncumbent) Best() *Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best
}

// BestEpoch returns the incumbent plus its epoch — a counter bumped on
// every installation, so a poller can cheaply detect "nothing new".
func (s *SharedIncumbent) BestEpoch() (*Solution, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best, s.epoch
}

// Offer installs sol if it strictly improves the incumbent (objective
// first, total leakage as the tie-break) and reports whether it did.
func (s *SharedIncumbent) Offer(sol *Solution) bool { return s.OfferFrom(-1, sol) }

// OfferFrom is Offer with an originating subscriber id: on installation
// every subscriber except origin is notified.  Pass an id no subscriber
// holds (e.g. -1) to notify everyone.
func (s *SharedIncumbent) OfferFrom(origin int, sol *Solution) bool {
	if sol == nil {
		return false
	}
	s.mu.Lock()
	if !s.improves(sol) {
		s.mu.Unlock()
		return false
	}
	s.best = sol
	s.epoch++
	fns := make([]func(*Solution), 0, len(s.subs))
	for id, fn := range s.subs {
		if id != origin {
			fns = append(fns, fn)
		}
	}
	s.mu.Unlock()
	for _, fn := range fns {
		fn(sol)
	}
	return true
}

// improves reports whether sol is strictly better than the current best
// under the objective-then-leak order.  Strictness is what terminates
// broadcast echo: a solution round-tripped through another process compares
// equal and is dropped.
func (s *SharedIncumbent) improves(sol *Solution) bool {
	if s.best == nil {
		return true
	}
	a, b := s.p.objValue(sol), s.p.objValue(s.best)
	return a < b || (a == b && sol.Leak < s.best.Leak)
}

// attachShare couples a running search to an external incumbent: external
// improvements install into the search's atomic bound (tightening pruning
// mid-descent), and the search's own improvements publish outward.  The
// current best is exchanged both ways at attach time so neither side starts
// behind the other.
func (sh *sharedSearch) attachShare(s *SharedIncumbent) {
	sh.share = s
	sh.shareID = s.Subscribe(func(sol *Solution) { sh.installExternal(sol) })
	if ext := s.Best(); ext != nil {
		sh.installExternal(ext)
	}
	sh.mu.Lock()
	cur := sh.best
	sh.mu.Unlock()
	if cur != nil {
		s.OfferFrom(sh.shareID, cur)
	}
}

func (sh *sharedSearch) detachShare() {
	if sh.share != nil {
		sh.share.Unsubscribe(sh.shareID)
	}
}

// SeedSolution runs the Heuristic 1 descent that seeds every tree search —
// exported so a coordinator can compute the incumbent a distributed run
// starts from (identical to the seed a local Solve would derive).
func (p *Problem) SeedSolution(penalty float64) (*Solution, error) {
	return p.heuristic1(p.Budget(penalty))
}

// SearchFingerprint exposes the checkpoint fingerprint of a (problem,
// options) pair: everything defining the search space and objective, with
// execution knobs excluded.  A coordinator and its shards must agree on it
// before exchanging tasks, and snapshots resume across local and
// distributed runs interchangeably because both use this same hash.
func (p *Problem) SearchFingerprint(opt Options) uint64 { return p.fingerprint(opt) }

// DefaultSplitDepth picks the frontier depth for a distributed run: the
// same surplus heuristic the local pool uses, floored at the checkpoint
// depth (a coordinator always snapshots, and finer tasks both bound the
// requeue loss when a shard dies and give work stealing something to take).
func DefaultSplitDepth(parallelism, inputs int) int {
	d := autoSplitDepth(parallelism, inputs)
	if d < ckSplitDepth {
		d = ckSplitDepth
	}
	if d > inputs {
		d = inputs
	}
	return d
}

// ExpandFrontier expands the state tree to depth under seed's bound and
// returns the surviving subtree tasks plus the counters the expansion
// spent (state nodes, pruned branches, batch sweeps).  The task set is
// exactly the one a local pool run at the same split depth would build —
// the expansion evaluates no leaves, so the incumbent cannot move during
// it — and opt.Seed applies the same optional shuffle runPool would.
func (p *Problem) ExpandFrontier(opt Options, seed *Solution, depth int) ([][]sim.Value, SearchStats, error) {
	if seed == nil {
		return nil, SearchStats{}, fmt.Errorf("%w: ExpandFrontier requires a seed incumbent", ErrInvalidOptions)
	}
	if depth < 0 {
		depth = 0
	}
	if depth > len(p.piOrder) {
		depth = len(p.piOrder)
	}
	// A zero-stats copy keeps the returned counters a pure delta: the
	// caller owns the seed's own counters and merges them once.
	zero := *seed
	zero.Stats = SearchStats{}
	sh := newSharedSearch(p, opt, p.Budget(opt.Penalty), &zero)
	sh.splitDepth = depth
	tasks, err := sh.frontier(depth)
	if err != nil {
		return nil, SearchStats{}, err
	}
	if opt.Seed != 0 {
		rng := rand.New(rand.NewSource(opt.Seed))
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	}
	var stats SearchStats
	stats.Counters().Set(sh.counters())
	return tasks, stats, nil
}

// TaskResult is the outcome of one SolveTasks batch.
type TaskResult struct {
	// Best is the best solution found (the seed if nothing improved); its
	// Stats cover exactly this batch's completed work.
	Best *Solution
	// Remaining is the tasks left unexplored — empty on a clean drain, the
	// interrupted or dead-worker remainder otherwise.
	Remaining [][]sim.Value
	// LeavesUsed counts the leaf-budget tickets the batch consumed,
	// including the leaves of tasks that were interrupted and rolled back.
	// Budgets must be charged with this (never with Best.Stats.Leaves, the
	// exactly-once counter): otherwise a task too big for the remaining
	// budget would roll back to a zero-leaf delta and be re-leased forever.
	LeavesUsed int64
}

// SolveTasks drains an explicit subtree task set with the pool engine: the
// shard half of a distributed run.  seed is the starting incumbent (pass a
// zero-Stats copy — the result's Stats then cover exactly this call's
// work, after the usual rollback of tasks that did not finish);
// opt.SplitDepth must be the depth the tasks were expanded at.  An error
// comes only from infrastructure failures — like Solve, an all-workers-died
// run returns the incumbent alongside ErrWorkerPanic.
//
// Checkpointing is rejected: in a distributed run the coordinator owns the
// snapshot, and a shard's unfinished tasks are its Remaining return.
func (p *Problem) SolveTasks(ctx context.Context, opt Options, seed *Solution, tasks [][]sim.Value) (*TaskResult, error) {
	start := time.Now()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Algorithm != AlgHeuristic2 && opt.Algorithm != AlgExact {
		return nil, fmt.Errorf("%w: SolveTasks requires a tree search (heuristic2 or exact)", ErrInvalidOptions)
	}
	if opt.Checkpoint.Path != "" || opt.Checkpoint.Resume {
		return nil, fmt.Errorf("%w: SolveTasks does not checkpoint (the coordinator owns the snapshot)", ErrInvalidOptions)
	}
	if seed == nil {
		return nil, fmt.Errorf("%w: SolveTasks requires a seed incumbent", ErrInvalidOptions)
	}
	if opt.SplitDepth < 0 || opt.SplitDepth > len(p.piOrder) {
		return nil, fmt.Errorf("%w: split depth %d out of range (%d inputs)", ErrInvalidOptions, opt.SplitDepth, len(p.piOrder))
	}
	for ti, t := range tasks {
		if len(t) != len(p.CC.PI) {
			return nil, fmt.Errorf("%w: task %d has %d values, circuit has %d inputs", ErrInvalidOptions, ti, len(t), len(p.CC.PI))
		}
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}

	sh := newSharedSearch(p, opt, p.Budget(opt.Penalty), seed)
	sh.start = start
	sh.splitDepth = opt.SplitDepth
	// Shards run the same bound cascade a local pool would, so a 1-shard
	// cluster run explores (and prunes) bit-identically to the local search.
	// The engine is cached on the Problem, so repeated leases pay the build
	// once.
	var err error
	sh.relax, err = p.relaxEngine(ctx, sh.budget, nil)
	if err != nil {
		return nil, err
	}
	if opt.Share != nil {
		sh.attachShare(opt.Share)
		defer sh.detachShare()
	}
	if ctx.Err() != nil {
		sh.markInterrupted()
		return &TaskResult{Best: sh.finish(start), Remaining: cloneTasks(tasks)}, nil
	}

	watchDone := make(chan struct{})
	var watchOnce sync.Once
	stopWatcher := func() { watchOnce.Do(func() { close(watchDone) }) }
	defer stopWatcher()
	go func() {
		select {
		case <-ctx.Done():
			sh.markInterrupted()
		case <-watchDone:
		}
	}()

	searchErr := sh.runPool(opt, &ResumedSearch{Tasks: tasks, SplitDepth: opt.SplitDepth})
	stopWatcher()

	var remaining [][]sim.Value
	if sh.pool != nil {
		remaining = sh.pool.remaining()
	}
	if searchErr != nil && !errors.Is(searchErr, ErrWorkerPanic) {
		return nil, searchErr
	}
	return &TaskResult{
		Best:       sh.finish(start),
		Remaining:  remaining,
		LeavesUsed: sh.leafTickets.Load(),
	}, searchErr
}

func cloneTasks(tasks [][]sim.Value) [][]sim.Value {
	out := make([][]sim.Value, len(tasks))
	for i, t := range tasks {
		out[i] = append([]sim.Value(nil), t...)
	}
	return out
}

// IncumbentCoords serializes a solution's gate choices as the (state,
// index) coordinates the checkpoint format and the cluster wire protocol
// carry instead of pointers.
func (p *Problem) IncumbentCoords(sol *Solution) ([][2]int32, error) {
	return p.Timer.ChoiceCoords(sol.Choices)
}

// ResolveIncumbent is the inverse of IncumbentCoords: it re-resolves wire
// coordinates into choice pointers and cross-checks the sender's recorded
// leakage against the re-resolved choices, rejecting a solution that does
// not describe this problem (the same end-to-end integrity check snapshot
// restore performs).
func (p *Problem) ResolveIncumbent(state []bool, coords [][2]int32, leak, isub, delay float64) (*Solution, error) {
	if len(state) != len(p.CC.PI) {
		return nil, fmt.Errorf("core: incumbent has %d input values, circuit has %d inputs", len(state), len(p.CC.PI))
	}
	choices, err := p.Timer.ChoicesAt(coords)
	if err != nil {
		return nil, err
	}
	gotLeak, gotIsub := leakOf(choices)
	if diff := gotLeak - leak; diff > 1e-6 || diff < -1e-6 {
		return nil, fmt.Errorf("core: incumbent leakage %.9g disagrees with re-resolved choices %.9g", leak, gotLeak)
	}
	if diff := gotIsub - isub; diff > 1e-6 || diff < -1e-6 {
		return nil, fmt.Errorf("core: incumbent Isub %.9g disagrees with re-resolved choices %.9g", isub, gotIsub)
	}
	return &Solution{
		State:   append([]bool(nil), state...),
		Choices: choices,
		Leak:    leak,
		Isub:    isub,
		Delay:   delay,
	}, nil
}
