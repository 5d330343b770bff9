package core

import (
	"sort"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
)

// identicalSolutions asserts two solutions are bit-for-bit equal: same
// sleep vector, same choice pointers, same leakage/delay words.
func identicalSolutions(t *testing.T, tag string, a, b *Solution) {
	t.Helper()
	if a.Leak != b.Leak || a.Isub != b.Isub || a.Delay != b.Delay {
		t.Errorf("%s: values differ: (%v, %v, %v) vs (%v, %v, %v)",
			tag, a.Leak, a.Isub, a.Delay, b.Leak, b.Isub, b.Delay)
	}
	for i := range a.State {
		if a.State[i] != b.State[i] {
			t.Fatalf("%s: sleep vectors differ at input %d", tag, i)
		}
	}
	for gi := range a.Choices {
		if a.Choices[gi] != b.Choices[gi] {
			t.Fatalf("%s: gate %d choices differ", tag, gi)
		}
	}
}

// The precomputed rankTab must order candidates exactly as the per-visit
// stable argsort the descents previously performed.
func TestRankTabMatchesFreshSort(t *testing.T) {
	circ, err := gen.RandomLogic("ranktab", 37, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{ObjTotal, ObjIsubOnly} {
		p := newProblem(t, circ, library.DefaultOptions(), obj)
		for gi := range p.CC.Gates {
			cell := p.Timer.Cells[gi]
			for s := 0; s < cell.Template.NumStates(); s++ {
				choices := cell.Choices[s]
				idx := make([]int, len(choices))
				for i := range idx {
					idx[i] = i
				}
				sort.SliceStable(idx, func(a, b int) bool {
					return p.objOf(&choices[idx[a]]) < p.objOf(&choices[idx[b]])
				})
				got := p.rankTab[gi][s]
				if len(got) != len(idx) {
					t.Fatalf("gate %d state %d: rank length %d != %d", gi, s, len(got), len(idx))
				}
				for i := range idx {
					if int(got[i]) != idx[i] {
						t.Fatalf("obj %v gate %d state %d: rankTab %v != fresh stable sort %v", obj, gi, s, got, idx)
					}
				}
			}
		}
	}
}
