package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/nwerr"
)

func TestDefaultGridSize(t *testing.T) {
	g := DefaultGrid()
	if g.Size() != 5*4 {
		t.Errorf("Size = %d, want 20", g.Size())
	}
	// Empty grid inherits the defaults.
	if (Grid{}).Size() != g.Size() {
		t.Error("empty grid does not default")
	}
}

func TestRunDefaultGrid(t *testing.T) {
	rows, err := RunWorkers(context.Background(), core.Config{}, Grid{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tree families: lengths 4,6,8,10 (all even) -> 3x4; hot: 4,6,8,10 all
	// divisible by 2 -> 2x4. Total 20.
	if len(rows) != 20 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Yield <= 0 || r.Yield > 1 {
			t.Errorf("%v M=%d: yield %g", r.Type, r.Length, r.Yield)
		}
		if r.BitArea <= 0 || r.Phi <= 0 || r.SpaceSize <= 0 {
			t.Errorf("%v M=%d: incomplete row %+v", r.Type, r.Length, r)
		}
	}
}

func TestRunSkipsInvalidLengths(t *testing.T) {
	rows, err := RunWorkers(context.Background(), core.Config{}, Grid{
		Types:   []code.Type{code.TypeGray, code.TypeHot},
		Lengths: []int{5, 6},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Length == 5 {
			t.Error("odd length evaluated")
		}
	}
	if len(rows) != 2 {
		t.Errorf("got %d rows, want 2", len(rows))
	}
}

func TestRunAllInvalidErrors(t *testing.T) {
	_, err := RunWorkers(context.Background(), core.Config{}, Grid{
		Types:   []code.Type{code.TypeGray},
		Lengths: []int{3},
	}, 0)
	if err == nil {
		t.Error("empty result accepted")
	}
}

// TestRunRejectsAxisValues: a zero σ_T or margin would be computed at
// the default and labelled 0, so RunWorkers refuses it, like every other
// value no design can be built from, with an error naming the axis.
func TestRunRejectsAxisValues(t *testing.T) {
	for _, tc := range []struct {
		grid Grid
		axis string
	}{
		{Grid{SigmaTs: []float64{0.05, 0}}, "sigmaT"},
		{Grid{SigmaTs: []float64{math.NaN()}}, "sigmaT"},
		{Grid{MarginFactors: []float64{0}}, "margin factor"},
		{Grid{MarginFactors: []float64{math.Inf(1)}}, "margin factor"},
		{Grid{HalfCaveWires: []int{-1}}, "half-cave wire count"},
	} {
		_, err := RunWorkers(context.Background(), core.Config{}, tc.grid, 1)
		if !nwerr.IsInvalid(err) || !strings.Contains(err.Error(), tc.axis) {
			t.Errorf("grid %+v: error %v, want an Invalid-class error naming %s", tc.grid, err, tc.axis)
		}
	}
}

func TestRunMultiAxis(t *testing.T) {
	rows, err := RunWorkers(context.Background(), core.Config{}, Grid{
		Types:         []code.Type{code.TypeBalancedGray},
		Lengths:       []int{10},
		SigmaTs:       []float64{0.03, 0.05, 0.08},
		MarginFactors: []float64{0.8, 1.0},
		HalfCaveWires: []int{16, 20},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2*2 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	// Yield must fall with sigma at fixed margin/N.
	byKey := make(map[string]float64)
	for _, r := range rows {
		key := strconv.Itoa(r.HalfCaveWires) + "/" + strconv.FormatFloat(r.MarginFactor, 'g', -1, 64) +
			"/" + strconv.FormatFloat(r.SigmaT, 'g', -1, 64)
		byKey[key] = r.Yield
	}
	if !(byKey["20/1/0.03"] > byKey["20/1/0.05"] && byKey["20/1/0.05"] > byKey["20/1/0.08"]) {
		t.Error("yield not monotone in sigma")
	}
}

func TestWriteCSV(t *testing.T) {
	rows, err := RunWorkers(context.Background(), core.Config{}, Grid{
		Types:   []code.Type{code.TypeGray},
		Lengths: []int{8, 10},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1+len(rows) {
		t.Fatalf("CSV has %d records", len(records))
	}
	if len(records[0]) != len(Header()) {
		t.Errorf("header has %d fields, want %d", len(records[0]), len(Header()))
	}
	if records[1][0] != "GC" || records[1][1] != "8" {
		t.Errorf("first data record %v", records[1])
	}
}

func TestRunWorkersDeterministic(t *testing.T) {
	serial, err := RunWorkers(context.Background(), core.Config{}, Grid{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunWorkers(context.Background(), core.Config{}, Grid{}, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("%d vs %d rows", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
	// The CSV — the actual data product — must be byte-identical too.
	var a, b bytes.Buffer
	if err := WriteCSV(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("CSV output differs between worker counts")
	}
}
