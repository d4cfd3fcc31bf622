package experiments

import (
	"context"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
)

func TestReadoutOrderingWithinTreeFamily(t *testing.T) {
	points, err := ReadoutWorkers(context.Background(), core.Config{}, 30, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("want 5 points, got %d", len(points))
	}
	byType := make(map[code.Type]ReadoutPoint)
	var ahcSingle, ahcDual ReadoutPoint
	for _, p := range points {
		if p.Type == code.TypeArrangedHot {
			if p.DualRail {
				ahcDual = p
			} else {
				ahcSingle = p
			}
			continue
		}
		byType[p.Type] = p
		if p.SensableFraction < 0 || p.SensableFraction > 1 {
			t.Errorf("%v: sensable fraction %g out of range", p.Type, p.SensableFraction)
		}
		if p.MedianRatio <= 0 {
			t.Errorf("%v: non-positive median ratio", p.Type)
		}
	}
	tc, gc, bgc := byType[code.TypeTree], byType[code.TypeGray], byType[code.TypeBalancedGray]
	if gc.SensableFraction <= tc.SensableFraction {
		t.Errorf("analog ordering lost: GC %g <= TC %g", gc.SensableFraction, tc.SensableFraction)
	}
	if bgc.SensableFraction < gc.SensableFraction-0.05 {
		t.Errorf("BGC %g clearly below GC %g", bgc.SensableFraction, gc.SensableFraction)
	}
	if gc.MedianRatio <= tc.MedianRatio {
		t.Errorf("median ratios lost the ordering: GC %g <= TC %g", gc.MedianRatio, tc.MedianRatio)
	}
	// The dual-rail drive must recover the hot code's sensing margin.
	if ahcDual.SensableFraction <= ahcSingle.SensableFraction+0.2 {
		t.Errorf("dual rail recovery too small: %g vs %g",
			ahcDual.SensableFraction, ahcSingle.SensableFraction)
	}
	if ahcDual.SensableFraction < 0.8 {
		t.Errorf("dual-rail AHC only %g sensable", ahcDual.SensableFraction)
	}
}

func TestReadoutDefaultsAndRender(t *testing.T) {
	points, err := ReadoutWorkers(context.Background(), core.Config{}, 0, 1, 0) // default trials
	if err != nil {
		t.Fatal(err)
	}
	out := RenderReadout(points)
	for _, want := range []string{"analog readout", "median on/off", "dual-rail", "DeHon"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
