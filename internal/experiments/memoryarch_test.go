package experiments

import (
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
)

func TestSparesOrderingFollowsYield(t *testing.T) {
	points, err := Spares(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("want 5 points, got %d", len(points))
	}
	byType := make(map[code.Type]SparePoint)
	for _, p := range points {
		byType[p.Type] = p
		if p.Spares <= 0 {
			t.Errorf("%v: zero spares at non-zero failure probability", p.Type)
		}
		if p.Overhead <= 0 || p.Overhead > 1 {
			t.Errorf("%v: overhead %g implausible", p.Type, p.Overhead)
		}
	}
	// Better codes need fewer spares: BGC < GC < TC, AHC < HC.
	if !(byType[code.TypeBalancedGray].Spares < byType[code.TypeGray].Spares &&
		byType[code.TypeGray].Spares < byType[code.TypeTree].Spares) {
		t.Errorf("tree-family spare ordering violated: %+v", points)
	}
	if byType[code.TypeArrangedHot].Spares >= byType[code.TypeHot].Spares {
		t.Error("AHC needs as many spares as HC")
	}
	out := RenderSpares(points)
	if !strings.Contains(out, "spare-wire provisioning") {
		t.Error("render incomplete")
	}
}

func TestSneakShapes(t *testing.T) {
	points, err := Sneak(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("default grid has %d points", len(points))
	}
	for i, p := range points {
		if p.DiodeRatio <= p.PassiveRatio {
			t.Errorf("n=%d: diode ratio %g not above passive %g",
				p.ArraySize, p.DiodeRatio, p.PassiveRatio)
		}
		if i > 0 {
			if p.PassiveRatio >= points[i-1].PassiveRatio || p.DiodeRatio >= points[i-1].DiodeRatio {
				t.Errorf("ratios not degrading at n=%d", p.ArraySize)
			}
		}
	}
	// The paper's 128-wire layer is readable with the diode cell only.
	var at128 SneakPoint
	for _, p := range points {
		if p.ArraySize == 128 {
			at128 = p
		}
	}
	if at128.PassiveRatio > 1.1 {
		t.Errorf("passive 128 array unexpectedly readable: %g", at128.PassiveRatio)
	}
	if at128.DiodeRatio < 1.5 {
		t.Errorf("diode 128 array unreadable: %g", at128.DiodeRatio)
	}
	out := SneakDataset(points).Text()
	for _, want := range []string{"off/on read ratio", "V/2 scheme", "max diode-isolated array"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestSneakValidation(t *testing.T) {
	if _, err := Sneak([]int{1}); err == nil {
		t.Error("array size 1 accepted")
	}
}
