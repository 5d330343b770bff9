package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"svto/internal/core"
	"svto/pkg/svto"
)

// reference is the committed expected outcome of one job.  Floats
// round-trip exactly through encoding/json, so equality is bit for bit.
type reference struct {
	LeakNA      float64 `json:"leak_na"`
	DelayPS     float64 `json:"delay_ps"`
	BudgetPS    float64 `json:"budget_ps"`
	BaselineNA  float64 `json:"baseline_na,omitempty"`
	SleepVector string  `json:"sleep_vector"`
	StateNodes  int64   `json:"state_nodes"`
	Leaves      int64   `json:"leaves"`
	Pruned      int64   `json:"pruned"`
}

type references map[string]reference

var errMismatch = errors.New("result differs from the reference")

type refFile struct {
	Workload string     `json:"workload"`
	Note     string     `json:"note"`
	Jobs     references `json:"jobs"`
}

func refPath(dir, name string) string { return filepath.Join(dir, name+".json") }

func loadReferences(dir, name string) (references, error) {
	data, err := os.ReadFile(refPath(dir, name))
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var f refFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", refPath(dir, name), err)
	}
	if len(f.Jobs) == 0 {
		return nil, fmt.Errorf("%s holds no references", refPath(dir, name))
	}
	return f.Jobs, nil
}

func sleepVector(v []bool) string {
	var b strings.Builder
	for _, x := range v {
		if x {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func referenceOf(res *svto.Result) reference {
	return reference{
		LeakNA:      res.LeakNA,
		DelayPS:     res.DelayPS,
		BudgetPS:    res.BudgetPS,
		BaselineNA:  res.BaselineNA,
		SleepVector: sleepVector(res.SleepVector),
		StateNodes:  res.Stats.StateNodes,
		Leaves:      res.Stats.Leaves,
		Pruned:      res.Stats.Pruned,
	}
}

// check reports how res departs from the job's reference: an interrupted
// search, a delay over budget, or any difference in the optimum, the
// baseline or the node, leaf and prune counts.
func (refs references) check(key string, res *svto.Result) error {
	want, ok := refs[key]
	if !ok {
		return fmt.Errorf("no reference for job %s", key)
	}
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Interrupted {
		return fmt.Errorf("search interrupted")
	}
	if res.DelayPS > res.BudgetPS+core.DelayEps {
		return fmt.Errorf("delay %.6g ps over budget %.6g ps", res.DelayPS, res.BudgetPS)
	}
	got := referenceOf(res)
	if got != want {
		return fmt.Errorf("%w: %s", errMismatch, diffRef(want, got))
	}
	return nil
}

func diffRef(want, got reference) string {
	var d []string
	f := func(name string, w, g float64) {
		if math.Float64bits(w) != math.Float64bits(g) {
			d = append(d, fmt.Sprintf("%s got %v, want %v", name, g, w))
		}
	}
	i := func(name string, w, g int64) {
		if w != g {
			d = append(d, fmt.Sprintf("%s got %d, want %d", name, g, w))
		}
	}
	f("leak_na", want.LeakNA, got.LeakNA)
	f("delay_ps", want.DelayPS, got.DelayPS)
	f("budget_ps", want.BudgetPS, got.BudgetPS)
	f("baseline_na", want.BaselineNA, got.BaselineNA)
	if want.SleepVector != got.SleepVector {
		d = append(d, fmt.Sprintf("sleep_vector got %s, want %s", got.SleepVector, want.SleepVector))
	}
	i("state_nodes", want.StateNodes, got.StateNodes)
	i("leaves", want.Leaves, got.Leaves)
	i("pruned", want.Pruned, got.Pruned)
	return strings.Join(d, ", ")
}

// writeReferences runs every job of the set once, untraced, and writes the
// outcomes as the workload's reference file.
func writeReferences(w *workload, jobs []job, tmp, dir string) error {
	sys, err := w.setup(tmp, false)
	if err != nil {
		return err
	}
	defer sys.close()
	f := refFile{
		Workload: w.refName(),
		Note:     "expected outcomes; regenerate with: bash perfbench/run.sh --workload " + w.name + " --write-refs",
		Jobs:     references{},
	}
	for _, j := range jobs {
		res, err := w.solve(context.Background(), sys, j)
		if err != nil {
			return fmt.Errorf("%s: %w", j.key, err)
		}
		if res.Interrupted {
			return fmt.Errorf("%s: search interrupted", j.key)
		}
		f.Jobs[j.key] = referenceOf(res)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := refPath(dir, w.refName())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d references to %s\n", len(f.Jobs), path)
	return nil
}
