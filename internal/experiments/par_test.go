package experiments

import (
	"context"
	"runtime"
	"testing"

	"nwdec/internal/core"
)

// The determinism contract of the parallel engine: every experiment must be
// bit-identical at every worker count. These tests compare the fully serial
// path (workers = 1) against the saturated pool (GOMAXPROCS).

func TestMonteCarloSerialParallelIdentical(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 2009, 0xDEADBEEF} {
		serial, err := MonteCarloWorkers(ctx, core.Config{}, 3, seed, 1)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		parallel, err := MonteCarloWorkers(ctx, core.Config{}, 3, seed, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if len(serial) != len(parallel) {
			t.Fatalf("seed %d: %d vs %d points", seed, len(serial), len(parallel))
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Errorf("seed %d point %d: serial %+v != parallel %+v",
					seed, i, serial[i], parallel[i])
			}
		}
	}
}

func TestFig7SerialParallelIdentical(t *testing.T) {
	ctx := context.Background()
	serial, err := Fig7Workers(ctx, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig7Workers(ctx, core.Config{}, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("%d vs %d points", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestFig8SerialParallelIdentical(t *testing.T) {
	ctx := context.Background()
	serial, err := Fig8Workers(ctx, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig8Workers(ctx, core.Config{}, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("%d vs %d points", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestRunnerWorkerCountInvisible(t *testing.T) {
	// The same experiment through the Runner must serialize identically at
	// every worker count, in every format.
	ctx := context.Background()
	for _, name := range []string{"fig7", "montecarlo", "margin", "readout", "noise"} {
		serial := &Runner{}
		serial.Workers = 1
		parallel := &Runner{}
		parallel.Workers = runtime.GOMAXPROCS(0)
		a, err := serial.Run(ctx, name)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		b, err := parallel.Run(ctx, name)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if a.Text() != b.Text() {
			t.Errorf("%s: text rendering differs between worker counts", name)
		}
		if a.CSV() != b.CSV() {
			t.Errorf("%s: CSV differs between worker counts", name)
		}
		aj, err := a.JSON()
		if err != nil {
			t.Fatal(err)
		}
		bj, err := b.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(aj) != string(bj) {
			t.Errorf("%s: JSON differs between worker counts", name)
		}
	}
}

// TestStudiesWorkerCountInvisible pins the substream discipline of the
// noise and readout studies: each trial draws its own substream, so the
// datasets serialize identically at workers 1, 2, 3 and 8, which move the
// chunk boundaries (150 noise trials per half and 45 readout trials per
// study split unevenly at every count).
func TestStudiesWorkerCountInvisible(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"noise", "readout"} {
		var want [3]string
		for _, workers := range []int{1, 2, 3, 8} {
			r := &Runner{MCTrials: 3, Workers: workers}
			ds, err := r.Run(ctx, name)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", name, workers, err)
			}
			js, err := ds.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got := [3]string{string(js), ds.CSV(), ds.Text()}
			if workers == 1 {
				want = got
				continue
			}
			for i, form := range []string{"JSON", "CSV", "text"} {
				if got[i] != want[i] {
					t.Errorf("%s: %s at workers=%d differs from workers=1", name, form, workers)
				}
			}
		}
	}
}
