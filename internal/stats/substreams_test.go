package stats

import (
	"sync"
	"testing"
)

// TestSubstreamsMatchSplitAndStreams pins the equivalence contract: At(i)
// and Block(lo, n) are bit-identical to the eager Split/Streams fan-out.
func TestSubstreamsMatchSplitAndStreams(t *testing.T) {
	base := NewRNG(42)
	eager := base.Streams(300)
	src := base.Substreams()
	for _, i := range []uint64{299, 0, 64, 7, 128, 127} { // forward and backward
		if got, want := src.At(i).Uint64(), eager[i].Clone().Uint64(); got != want {
			t.Fatalf("At(%d) first draw = %#x, want %#x", i, got, want)
		}
	}
	block := src.Block(100, 50)
	for k, r := range block {
		if got, want := r.Uint64(), eager[100+k].Clone().Uint64(); got != want {
			t.Fatalf("Block(100,50)[%d] first draw = %#x, want %#x", k, got, want)
		}
	}
	// Split is the other eager reference.
	if got, want := base.Substreams().At(5).Uint64(), base.Split(5).Uint64(); got != want {
		t.Fatalf("At(5) = %#x, Split(5) = %#x", got, want)
	}
}

// TestSubstreamsDoesNotMutateBase verifies the source snapshots the base
// state: building and draining a source leaves the base generator where it
// was.
func TestSubstreamsDoesNotMutateBase(t *testing.T) {
	base := NewRNG(7)
	ref := base.Clone()
	src := base.Substreams()
	src.At(200)
	src.Block(0, 10)
	for k := 0; k < 4; k++ {
		if got, want := base.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("base stream moved: draw %d = %#x, want %#x", k, got, want)
		}
	}
}

// TestSubstreamsConcurrent hammers one source from many goroutines with
// overlapping forward and backward access; under -race this proves the
// internal cursor and checkpoint table are properly synchronized, and the
// values must still equal the eager fan-out.
func TestSubstreamsConcurrent(t *testing.T) {
	base := NewRNG(99)
	eager := base.Streams(512)
	want := make([]uint64, 512)
	for i, r := range eager {
		want[i] = r.Clone().Uint64()
	}
	src := base.Substreams()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks a different stride pattern, so the
			// cursor sees forward and backward motion concurrently.
			for k := 0; k < 64; k++ {
				i := uint64((k*97 + g*13) % 512)
				if got := src.At(i).Uint64(); got != want[i] {
					select {
					case errs <- "substream mismatch":
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSubstreamsBlockEdges covers empty and zero-length blocks.
func TestSubstreamsBlockEdges(t *testing.T) {
	src := NewRNG(1).Substreams()
	if out := src.Block(10, 0); out != nil {
		t.Errorf("Block(10, 0) = %v, want nil", out)
	}
	if out := src.Block(0, -3); out != nil {
		t.Errorf("Block(0, -3) = %v, want nil", out)
	}
}

func BenchmarkSubstreamsSequential(b *testing.B) {
	src := NewRNG(3).Substreams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.At(uint64(i))
	}
}

func BenchmarkStreamsEager(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRNG(3).Streams(64)
	}
}

// TestBlockAllocsIndependentOfSize pins Block's allocation: one slice of
// generators and one of pointers, whatever the block size.
func TestBlockAllocsIndependentOfSize(t *testing.T) {
	src := NewRNG(5).Substreams()
	next := uint64(0)
	for _, n := range []int{1, 10, 200} {
		if allocs := testing.AllocsPerRun(20, func() {
			src.Block(next, n)
			next += uint64(n)
		}); allocs != 2 {
			t.Errorf("Block of %d allocates %v times, want 2", n, allocs)
		}
	}
}
