package code

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/arrangements.golden")

// goldenShapes lists the (base, length, count) triples pinned by
// testdata/arrangements.golden: every binary length from 4 to 12 that both
// searched families accept (BGC needs an even length, AHC a multiple of the
// base) at the paper's array sizes, plus one ternary shape. The scaling
// experiment's (2, 10, 26) is the one whose balanced-Gray search exhausts
// its budget at the first cap.
func goldenShapes() [][3]int {
	var shapes [][3]int
	for length := 4; length <= 12; length += 2 {
		for _, count := range []int{10, 16, 20, 26, 32} {
			shapes = append(shapes, [3]int{2, length, count})
		}
	}
	return append(shapes, [3]int{3, 6, 10})
}

// renderArrangements writes one line per family and shape: the header
// "BGC base=2 M=10 N=26:" followed by the words code.New and
// CyclicSequence return, space-separated.
func renderArrangements(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, typ := range []Type{TypeBalancedGray, TypeArrangedHot} {
		for _, s := range goldenShapes() {
			base, length, count := s[0], s[1], s[2]
			g, err := New(typ, base, length)
			if err != nil {
				t.Fatalf("New(%v, %d, %d): %v", typ, base, length, err)
			}
			words, err := CyclicSequence(g, count)
			if err != nil {
				t.Fatalf("%v base=%d M=%d N=%d: %v", typ, base, length, count, err)
			}
			fmt.Fprintf(&buf, "%v base=%d M=%d N=%d:", typ, base, length, count)
			for _, w := range words {
				buf.WriteByte(' ')
				buf.WriteString(w.String())
			}
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// TestArrangementsGolden pins the balanced-Gray and arranged-hot
// sequences byte for byte. Both come from budgeted searches whose result
// depends on the exact visiting order, so any change to the search shows
// up here. Run with -update to accept an intentional change.
func TestArrangementsGolden(t *testing.T) {
	path := filepath.Join("testdata", "arrangements.golden")
	got := renderArrangements(t)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\ngot:  %s\nwant: %s", i+1, path, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, the arrangements render %d", path, len(wl), len(gl))
}
