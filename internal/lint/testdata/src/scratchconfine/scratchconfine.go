// Package scratch seeds scratch-confinement violations of the chunked
// hot path against the real internal/par entry points, plus the clean
// arena-view and element-read patterns the rule must not flag.
package scratch

import (
	"context"

	"nwdec/internal/par"
)

var published []float64

type recorder struct {
	last []float64
}

type chunkErr struct {
	sample []float64
}

func (e *chunkErr) Error() string { return "chunk failed" }

// EscapeGlobal stores block scratch into a package global.
func EscapeGlobal(ctx context.Context, n int) error {
	return par.ForEachChunks(ctx, 4, n, 64, func(ctx context.Context, lo, hi int) error {
		buf := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			buf = append(buf, float64(i))
		}
		published = buf // want `scratchconfine: chunk-local scratch buf escapes the par block through a store to published`
		return nil
	})
}

// EscapeField stores block scratch into a field of a captured struct.
func EscapeField(ctx context.Context, r *recorder, n int) error {
	return par.ForEachChunks(ctx, 4, n, 64, func(ctx context.Context, lo, hi int) error {
		row := make([]float64, hi-lo)
		r.last = row // want `scratchconfine: chunk-local scratch row escapes the par block through a store to r`
		return nil
	})
}

// EscapeChannel sends block scratch over a captured channel.
func EscapeChannel(ctx context.Context, out chan []float64, n int) error {
	return par.ForEachChunks(ctx, 4, n, 64, func(ctx context.Context, lo, hi int) error {
		tmp := []float64{float64(lo), float64(hi)}
		out <- tmp // want `scratchconfine: chunk-local scratch tmp escapes the par block through a channel send`
		return nil
	})
}

// EscapeReturn smuggles block scratch out through the error path of a
// ForEachChunks block closure.
func EscapeReturn(ctx context.Context, n int) error {
	return par.ForEachChunks(ctx, 4, n, 64, func(ctx context.Context, lo, hi int) error {
		probe := make([]float64, 8)
		for i := lo; i < hi; i++ {
			if i%7 == 0 {
				return &chunkErr{sample: probe} // want `scratchconfine: chunk-local scratch probe escapes the par block through a return`
			}
		}
		return nil
	})
}

// EscapeGoroutine hands block scratch to a goroutine that may outlive
// the chunk (the go statement itself is a nogoroutine violation too;
// this fixture runs only scratchconfine).
func EscapeGoroutine(ctx context.Context, n int) error {
	return par.ForEachChunks(ctx, 4, n, 64, func(ctx context.Context, lo, hi int) error {
		work := make([]float64, hi-lo)
		go func() { // want `scratchconfine: chunk-local scratch work is captured by a goroutine`
			work[0] = 1
		}()
		return nil
	})
}

// ArenaView writes through a slice view of a caller-owned arena: the
// positional-ownership pattern of DESIGN §11, not scratch — clean.
func ArenaView(ctx context.Context, arena []float64, n int) error {
	return par.ForEachChunks(ctx, 4, n, 64, func(ctx context.Context, lo, hi int) error {
		out := arena[lo:hi]
		for i := range out {
			out[i] = float64(lo + i)
		}
		return nil
	})
}

// ElementRead copies element values out of reused block scratch into a
// caller-owned arena; the buffer itself stays confined — clean.
func ElementRead(ctx context.Context, totals []float64, n int) error {
	return par.ForEachChunks(ctx, 4, n, 64, func(ctx context.Context, lo, hi int) error {
		acc := make([]float64, 1)
		for i := lo; i < hi; i++ {
			acc[0] += float64(i)
			totals[i] = acc[0]
		}
		return nil
	})
}

// PerItemResult returns a buffer the invocation just allocated from a
// Map per-item callback: the sanctioned result hand-off — clean.
func PerItemResult(ctx context.Context, n int) ([][]float64, error) {
	return par.Map(ctx, 4, make([]struct{}, n), func(ctx context.Context, i int, _ struct{}) ([]float64, error) {
		buf := make([]float64, 4)
		buf[0] = float64(i)
		return buf, nil
	})
}
