// Package det seeds deliberate violations of the determinism rule.
package det

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// Stamp reads the wall clock.
func Stamp() int64 {
	t := time.Now() // want `determinism: time.Now reads the wall clock`
	return t.Unix()
}

// Elapsed measures wall-clock duration.
func Elapsed(since time.Time) time.Duration {
	return time.Since(since) // want `determinism: time.Since reads the wall clock`
}

// Draw samples the shared global source.
func Draw() float64 {
	return rand.Float64() // want `determinism: global rand.Float64 draws from a shared nondeterministic source`
}

// Pick samples the shared global source.
func Pick(n int) int {
	return rand.Intn(n) // want `determinism: global rand.Intn draws from a shared nondeterministic source`
}

// Seeded builds an explicitly seeded source, which is fine.
func Seeded() float64 {
	r := rand.New(rand.NewSource(1))
	return r.Float64()
}

// Keys feeds map-iteration order straight into a slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `determinism: append inside range over map feeds output ordering`
	}
	return out
}

// SortedKeys erases the iteration order with a sort, which is fine.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum aggregates commutatively, which is fine.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Dump writes output in map-iteration order.
func Dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `determinism: output written inside range over map`
	}
}

// Boot carries a leftover suppression directive. No comment silences a
// rule, so the directive is an inert comment and the read is reported.
func Boot() int64 {
	//nwlint:ignore determinism boot stamp for logs, never enters results
	return time.Now().Unix() // want `determinism: time.Now reads the wall clock`
}
