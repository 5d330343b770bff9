package core

import (
	"context"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
)

// The batched bound evaluator must be invisible to Workers=1 results: the
// default (Batch3) search returns bit-for-bit the same solution AND the same
// search counters as one with NoBatchEval (Inc3 probes), across every
// algorithm — the bounds are identical, so visit order, pruning and leaf set
// must be too.  Only the BatchSweeps/BatchLanes instrumentation may differ.
func TestNoBatchEvalEquivalence(t *testing.T) {
	circuits := map[string]*netlist.Circuit{}
	random, err := gen.RandomLogic("batchequiv", 23, 9, 18)
	if err != nil {
		t.Fatal(err)
	}
	circuits["random"] = random
	for _, name := range []string{"c432", "c880"} {
		prof, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		circ, err := prof.Build()
		if err != nil {
			t.Fatal(err)
		}
		circuits[name] = circ
	}

	for cname, circ := range circuits {
		for _, alg := range []Algorithm{AlgHeuristic1, AlgStateOnly, AlgHeuristic2, AlgExact} {
			if alg == AlgExact && cname != "random" {
				continue // exact is only tractable on the small random block
			}
			tag := cname + "/" + alg.String()
			t.Run(tag, func(t *testing.T) {
				opt := Options{Algorithm: alg, Penalty: 0.08, Workers: 1}
				if alg == AlgHeuristic2 && cname != "random" {
					// A truncated Workers=1 walk is still deterministic, and
					// a full c432/c880 tree is not tractable here.
					opt.MaxLeaves = 200
				}

				batched := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
				with, err := batched.Solve(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}

				ablated := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
				ablated.Ablate.NoBatchEval = true
				without, err := ablated.Solve(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}

				identicalSolutions(t, tag, with, without)
				type pair struct {
					name string
					a, b int64
				}
				for _, c := range []pair{
					{"StateNodes", with.Stats.StateNodes, without.Stats.StateNodes},
					{"GateTrials", with.Stats.GateTrials, without.Stats.GateTrials},
					{"Leaves", with.Stats.Leaves, without.Stats.Leaves},
					{"Pruned", with.Stats.Pruned, without.Stats.Pruned},
				} {
					if c.a != c.b {
						t.Errorf("%s: %s %d batched != %d incremental", tag, c.name, c.a, c.b)
					}
				}
				if with.Stats.BatchSweeps == 0 || with.Stats.BatchLanes == 0 {
					t.Errorf("%s: batched search reported no sweeps/lanes (%d/%d)",
						tag, with.Stats.BatchSweeps, with.Stats.BatchLanes)
				}
				if without.Stats.BatchSweeps != 0 || without.Stats.BatchLanes != 0 {
					t.Errorf("%s: ablated search reported batch counters (%d/%d)",
						tag, without.Stats.BatchSweeps, without.Stats.BatchLanes)
				}
			})
		}
	}
}

// The batch path must also be invisible to the parallel pool: with the same
// worker count, batched and incremental pools explore the same frontier
// tasks with the same per-task bounds, so an exhaustive search returns the
// same leakage.
func TestNoBatchEvalParallelEquivalence(t *testing.T) {
	const penalty = 0.05
	batched := midCircuit(t)
	with, err := batched.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ablated := midCircuit(t)
	ablated.Ablate.NoBatchEval = true
	without, err := ablated.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if with.Leak != without.Leak || with.Isub != without.Isub {
		t.Errorf("parallel leakage differs: batched (%v, %v) vs incremental (%v, %v)",
			with.Leak, with.Isub, without.Leak, without.Isub)
	}
}
