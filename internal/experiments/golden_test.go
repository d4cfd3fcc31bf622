package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden dataset files")

// TestGoldenDatasets pins the serialized JSON and CSV forms of the four
// paper-figure experiments. The goldens are the data contract of the
// pipeline: any change to the figure values, the column schema or the
// serialization itself shows up as a diff here. Run with -update to accept
// an intentional change.
//
// Each experiment runs at two worker counts and must match the same golden
// bytes, pinning the worker-count independence of the serialized forms.
func TestGoldenDatasets(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"fig5", "fig7", "fig8", "headline", "readout", "noise"} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			r := &Runner{}
			r.Workers = workers
			ds, err := r.Run(ctx, name)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", name, workers, err)
			}
			js, err := ds.JSON()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".json", js, workers)
			checkGolden(t, name+".csv", []byte(ds.CSV()), workers)
		}
	}
}

func checkGolden(t *testing.T, file string, got []byte, workers int) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden && workers == 1 {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create)", file, err)
	}
	if string(got) != string(want) {
		t.Errorf("%s (workers=%d) differs from golden; run with -update if intended.\ngot:\n%s\nwant:\n%s",
			file, workers, got, want)
	}
}
