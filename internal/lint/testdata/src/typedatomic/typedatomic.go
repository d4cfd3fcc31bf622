// Package typed seeds violations of the typedatomic rule: every use of
// a package-level sync/atomic function is flagged — a call in the legacy
// address-of style, a function value, a dot-imported name (dot.go) —
// while the methods of the typed sync/atomic kinds stay legal.
package typed

import "sync/atomic"

// Counters mixes a legacy counter field with a typed one.
type Counters struct {
	Hits  int64
	Total atomic.Int64
	Last  atomic.Pointer[string]
}

// Record bumps the legacy field through the function form.
func (c *Counters) Record() {
	atomic.AddInt64(&c.Hits, 1) // want `typedatomic: atomic.AddInt64 operates on a plain value`
}

// Snapshot reads it the same way.
func (c *Counters) Snapshot() int64 {
	return atomic.LoadInt64(&c.Hits) // want `typedatomic: atomic.LoadInt64`
}

// Loader hands out a package-level function as a value.
func Loader() func(*int64) int64 {
	return atomic.LoadInt64 // want `typedatomic: atomic.LoadInt64`
}

// Typed uses only typed-atomic methods, including a method value and a
// method expression — clean.
func (c *Counters) Typed(name *string) int64 {
	c.Total.Add(1)
	c.Last.Store(name)
	load := c.Total.Load
	swap := (*atomic.Int64).Swap
	return load() + swap(&c.Total, 0)
}
