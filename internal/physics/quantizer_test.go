package physics

import (
	"math"
	"testing"
)

func TestPaperExampleQuantizer(t *testing.T) {
	q := PaperExampleQuantizer()
	wantVT := []float64{0.1, 0.3, 0.5}
	wantND := []float64{2e18, 4e18, 9e18}
	nd := q.DopingLevels()
	if len(nd) != 3 {
		t.Fatalf("DopingLevels = %v, want 3 levels", nd)
	}
	for k := 0; k < 3; k++ {
		if got := q.VTOf(k); math.Abs(got-wantVT[k]) > 1e-12 {
			t.Errorf("VTOf(%d) = %g, want %g", k, got, wantVT[k])
		}
		if math.Abs(nd[k]-wantND[k])/wantND[k] > 1e-9 {
			t.Errorf("DopingLevels()[%d] = %g, want %g", k, nd[k], wantND[k])
		}
	}
	if got := q.Margin(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Margin = %g, want 0.1", got)
	}
}

func TestQuantizerBinaryWindow(t *testing.T) {
	q, err := NewQuantizer(DefaultPhysicalModel(), 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := q.VTOf(0), q.VTOf(1); math.Abs(lo-0.25) > 1e-12 || math.Abs(hi-0.75) > 1e-12 {
		t.Errorf("binary levels = [%g %g], want [0.25 0.75]", lo, hi)
	}
	if math.Abs(q.Margin()-0.25) > 1e-12 {
		t.Errorf("binary margin = %g, want 0.25", q.Margin())
	}
	d := q.DopingLevels()
	if d[0] >= d[1] {
		t.Errorf("doping levels not increasing: %v", d)
	}
}

func TestQuantizerValidation(t *testing.T) {
	m := DefaultPhysicalModel()
	if _, err := NewQuantizer(nil, 2, 0, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewQuantizer(m, 1, 0, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewQuantizer(m, 2, 1, 1); err == nil {
		t.Error("empty window accepted")
	}
}

func TestQuantizerPanicsOnBadDigit(t *testing.T) {
	q := PaperExampleQuantizer()
	for _, digit := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("digit %d did not panic", digit)
				}
			}()
			q.VTOf(digit)
		}()
	}
}

func TestQuantizerWindowAndCopies(t *testing.T) {
	q := PaperExampleQuantizer()
	lo, hi := q.Window()
	if lo != 0 || hi != 0.6 {
		t.Errorf("Window = %g,%g", lo, hi)
	}
	d := q.DopingLevels()
	d[0] = 99
	if q.DopingLevels()[0] == 99 {
		t.Error("DopingLevels leaked internal slice")
	}
	if q.N() != 3 {
		t.Errorf("N = %d", q.N())
	}
}
