package relax

import (
	"context"
	"errors"
	"math"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/sta"
	"svto/internal/tech"
)

// muxTimer builds the timer and a tight delay budget (0.2% penalty) for a
// small MuxBank: the shape and regime where the relaxation prices slow
// versions out, so the multiplier cache is not empty.
func muxTimer(t *testing.T) (*sta.Timer, float64) {
	t.Helper()
	circ, err := gen.MuxBank("relaxtest", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := circ.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	timer, err := sta.New(cc, lib, sta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dmin, dmax, err := timer.DelayBounds()
	if err != nil {
		t.Fatal(err)
	}
	return timer, sta.Constraint(dmin, dmax, 0.002)
}

func leak(ch *library.Choice) float64 { return ch.Leak }

// A build warm-started from a cold build's multipliers is a pure time
// saving: its Known/Unknown tables are bit-identical to the cold ones.
func TestWarmBuildMatchesCold(t *testing.T) {
	timer, budget := muxTimer(t)
	cfg := Config{Obj: leak, Budget: budget, DelayEps: 1e-9}
	cold, err := Build(timer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mults := cold.Multipliers()
	if len(mults) == 0 || !cold.Improved() {
		t.Fatal("cold build priced nothing out; the warm start would test nothing")
	}
	cfg.Warm = NewWarm()
	for _, m := range mults {
		cfg.Warm.Set(int(m.Gate), int(m.State), m.Lambda)
	}
	warm, err := Build(timer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := range cold.Known {
		if math.Float64bits(warm.Unknown[g]) != math.Float64bits(cold.Unknown[g]) {
			t.Errorf("gate %d: warm Unknown %v, cold %v", g, warm.Unknown[g], cold.Unknown[g])
		}
		for s := range cold.Known[g] {
			if math.Float64bits(warm.Known[g][s]) != math.Float64bits(cold.Known[g][s]) {
				t.Errorf("gate %d state %d: warm Known %v, cold %v", g, s, warm.Known[g][s], cold.Known[g][s])
			}
		}
	}
}

// A build under an already-cancelled context gives up and reports the
// context's error.
func TestBuildCancelled(t *testing.T) {
	timer, budget := muxTimer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := Build(timer, Config{Obj: leak, Budget: budget, Ctx: ctx})
	if !errors.Is(err, context.Canceled) || err != ctx.Err() || eng != nil {
		t.Fatalf("Build = (%v, %v), want (nil, %v)", eng, err, ctx.Err())
	}
}
