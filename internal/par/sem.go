package par

import "context"

// Semaphore is the admission-control primitive of the execution engine: a
// fixed pool of slots that callers acquire before starting expensive work
// and release when done. It bounds *requests in flight* the way the worker
// pool bounds *tasks in flight* — the two compose, with the semaphore at
// the request boundary and ForEachChunks/Map underneath.
//
// The implementation is a buffered channel, so Acquire needs no goroutines
// and respects cancellation: a caller blocked on a full semaphore returns
// as soon as its context is done.
type Semaphore struct {
	slots chan struct{}
}

// NewSemaphore returns a semaphore with n slots; n <= 0 selects
// Workers(0) (GOMAXPROCS), mirroring the pool-size convention.
func NewSemaphore(n int) *Semaphore {
	return &Semaphore{slots: make(chan struct{}, Workers(n))}
}

// Cap returns the slot count.
func (s *Semaphore) Cap() int { return cap(s.slots) }

// Acquire blocks until a slot is free or ctx is done, returning ctx's
// error in the latter case. A nil return means the caller holds a slot and
// must Release it.
func (s *Semaphore) Acquire(ctx context.Context) error {
	// Prefer the context verdict when both are ready: an already-canceled
	// caller never starts new work, even with slots free.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot without blocking, reporting whether it got one.
func (s *Semaphore) TryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot. Releasing more than was acquired is a
// programming error and panics rather than silently widening the bound.
func (s *Semaphore) Release() {
	select {
	case <-s.slots:
	default:
		panic("par: Semaphore.Release without matching Acquire")
	}
}

// InFlight returns the number of currently held slots.
func (s *Semaphore) InFlight() int { return len(s.slots) }
