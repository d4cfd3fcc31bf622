package typed

import . "sync/atomic"

// Flag stores through a dot-imported package-level function.
func Flag(f *int32) {
	StoreInt32(f, 1) // want `typedatomic: atomic.StoreInt32`
}

// Ready uses a dot-imported typed atomic — clean.
func Ready(b *Bool) bool {
	return b.Load()
}
