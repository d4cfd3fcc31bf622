package crossbar

import (
	"context"
	"fmt"

	"nwdec/internal/geometry"
	"nwdec/internal/obs"
	"nwdec/internal/par"
	"nwdec/internal/stats"
)

// Wire is one fabricated nanowire of a crossbar layer.
type Wire struct {
	// HalfCave is the index of the half cave the wire belongs to.
	HalfCave int
	// Index is the wire's position within its half cave (definition order).
	Index int
	// Group is the contact group the wire belongs to within its half cave.
	Group int
	// VT holds the sampled threshold voltages of the wire's M decoder
	// regions.
	VT []float64
	// BoundaryAmbiguous marks wires lying under a contact-group boundary;
	// they may be driven by two groups and are excluded from addressing.
	BoundaryAmbiguous bool
	// Addressable is the resolved functional addressability.
	Addressable bool
}

// Layer is one fabricated crossbar layer: WiresPerLayer nanowires organized
// in half caves, each half cave an independent Monte-Carlo instance of the
// decoder plan.
type Layer struct {
	Decoder *Decoder
	Contact geometry.ContactPlan
	Wires   []Wire
}

// BuildLayerWorkers fabricates a layer: it stamps the decoder plan into as
// many half caves as needed to cover wires nanowires, samples each half
// cave's threshold voltages independently, marks boundary-ambiguous wires
// and resolves functional addressability group by group. Half caves are
// resolved on the par pool with the given worker count (<= 0 means
// GOMAXPROCS, 1 is the serial path). Every half cave's generator is forked
// from rng up front in cave order — exactly the draws the serial loop makes
// — so the fabricated layer is bit-identical at every worker count, and rng
// is left in the same state. Cancelling ctx abandons unfinished caves and
// returns ctx's error.
func BuildLayerWorkers(ctx context.Context, d *Decoder, contact geometry.ContactPlan, wires int, sigmaT float64, rng *stats.RNG, workers int) (*Layer, error) {
	if wires <= 0 {
		return nil, fmt.Errorf("crossbar: non-positive wire count %d", wires)
	}
	if sigmaT < 0 {
		return nil, fmt.Errorf("crossbar: negative sigmaT %g", sigmaT)
	}
	n := d.Plan.N()
	if contact.GroupWires <= 0 {
		// A zero-valued contact plan means one undivided group.
		contact.GroupWires = n
		if contact.Groups <= 0 {
			contact.Groups = 1
		}
	}
	lossPerBoundary := 0
	if contact.Groups > 1 {
		lossPerBoundary = contact.BoundaryLost / (contact.Groups - 1)
	}
	// Mark the wires nearest each internal group boundary ambiguous; the
	// mask is identical for every half cave.
	ambiguous := make([]bool, n)
	for b := 1; b < contact.Groups; b++ {
		edge := b * contact.GroupWires
		for k := 0; k < lossPerBoundary; k++ {
			idx := edge - 1 - k/2
			if k%2 == 1 {
				idx = edge + k/2
			}
			if idx >= 0 && idx < n {
				ambiguous[idx] = true
			}
		}
	}
	caves := (wires + n - 1) / n
	// Fabrication volume accounting: counts are pure functions of the
	// layer geometry, so they are identical at every worker count.
	reg := obs.From(ctx)
	reg.Counter("crossbar/layers").Add(1)
	reg.Counter("crossbar/caves").Add(int64(caves))
	reg.Counter("crossbar/wires").Add(int64(wires))
	caveRNGs := make([]*stats.RNG, caves)
	for c := range caveRNGs {
		caveRNGs[c] = rng.Fork()
	}
	m := d.Plan.M()
	// The layer's wires and threshold matrices live in two flat arenas sized
	// up front: Wire values are written in place at cave*n+i, and each wire's
	// VT row is a subslice of vtFlat. This replaces the per-cave slice churn
	// of the old per-item path (row headers, group masks, result append) with
	// three allocations for the whole layer.
	wiresAll := make([]Wire, caves*n)
	vtFlat := make([]float64, caves*n*m)
	err := par.ForEachChunks(ctx, workers, caves, 0,
		func(cctx context.Context, clo, chi int) error {
			// Chunk-local scratch, reused across the caves of the block: row
			// headers re-pointed into vtFlat per cave, and the addressability
			// mask of one contact group. Neither escapes the chunk.
			rows := make([][]float64, n)
			unique := make([]bool, contact.GroupWires)
			for cave := clo; cave < chi; cave++ {
				if err := cctx.Err(); err != nil {
					return err
				}
				caveVT := vtFlat[cave*n*m : (cave+1)*n*m]
				for i := 0; i < n; i++ {
					rows[i] = caveVT[i*m : (i+1)*m]
				}
				d.Plan.SampleVTInto(caveRNGs[cave], sigmaT, d.Q.VTOf, rows)
				caveOut := wiresAll[cave*n : (cave+1)*n]
				for g := 0; g*contact.GroupWires < n; g++ {
					lo := g * contact.GroupWires
					hi := lo + contact.GroupWires
					if hi > n {
						hi = n
					}
					d.UniquelyAddressableInto(rows, lo, hi, unique[:hi-lo])
					for i := lo; i < hi; i++ {
						caveOut[i] = Wire{
							HalfCave:          cave,
							Index:             i,
							Group:             g,
							VT:                rows[i],
							BoundaryAmbiguous: ambiguous[i],
							Addressable:       unique[i-lo] && !ambiguous[i],
						}
					}
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return &Layer{Decoder: d, Contact: contact, Wires: wiresAll[:wires]}, nil
}

// AddressableCount returns how many wires of the layer are addressable.
func (l *Layer) AddressableCount() int {
	count := 0
	for _, w := range l.Wires {
		if w.Addressable {
			count++
		}
	}
	return count
}

// Yield returns the addressable fraction of the layer.
func (l *Layer) Yield() float64 {
	return float64(l.AddressableCount()) / float64(len(l.Wires))
}

// Memory is a functional crossbar memory: bits live at the crosspoints of
// two fabricated layers, and a crosspoint is usable only when both of its
// nanowires are addressable.
type Memory struct {
	Rows, Cols *Layer
	bits       []uint64 // packed row-major bit storage
}

// ErrUnaddressable reports an access through a defective (unaddressable)
// nanowire.
type ErrUnaddressable struct {
	Axis  string // "row" or "column"
	Index int
}

func (e *ErrUnaddressable) Error() string {
	return fmt.Sprintf("crossbar: %s %d is not addressable", e.Axis, e.Index)
}

// NewMemory builds a memory from two fabricated layers.
func NewMemory(rows, cols *Layer) *Memory {
	nbits := len(rows.Wires) * len(cols.Wires)
	return &Memory{
		Rows: rows,
		Cols: cols,
		bits: make([]uint64, (nbits+63)/64),
	}
}

// Size returns the raw dimensions (rows, cols) of the memory.
func (m *Memory) Size() (int, int) { return len(m.Rows.Wires), len(m.Cols.Wires) }

// Usable reports whether the crosspoint (r, c) can store a bit.
func (m *Memory) Usable(r, c int) bool {
	return r >= 0 && r < len(m.Rows.Wires) && c >= 0 && c < len(m.Cols.Wires) &&
		m.Rows.Wires[r].Addressable && m.Cols.Wires[c].Addressable
}

// check returns a typed error when the crosspoint is not accessible.
func (m *Memory) check(r, c int) error {
	if r < 0 || r >= len(m.Rows.Wires) {
		return fmt.Errorf("crossbar: row %d out of range [0,%d)", r, len(m.Rows.Wires))
	}
	if c < 0 || c >= len(m.Cols.Wires) {
		return fmt.Errorf("crossbar: column %d out of range [0,%d)", c, len(m.Cols.Wires))
	}
	if !m.Rows.Wires[r].Addressable {
		return &ErrUnaddressable{Axis: "row", Index: r}
	}
	if !m.Cols.Wires[c].Addressable {
		return &ErrUnaddressable{Axis: "column", Index: c}
	}
	return nil
}

// Write stores a bit at crosspoint (r, c); it fails when either nanowire of
// the crosspoint is defective.
func (m *Memory) Write(r, c int, bit bool) error {
	if err := m.check(r, c); err != nil {
		return err
	}
	idx := r*len(m.Cols.Wires) + c
	if bit {
		m.bits[idx/64] |= 1 << (idx % 64)
	} else {
		m.bits[idx/64] &^= 1 << (idx % 64)
	}
	return nil
}

// Read returns the bit stored at crosspoint (r, c).
func (m *Memory) Read(r, c int) (bool, error) {
	if err := m.check(r, c); err != nil {
		return false, err
	}
	idx := r*len(m.Cols.Wires) + c
	return m.bits[idx/64]&(1<<(idx%64)) != 0, nil
}

// UsableBits returns the number of working crosspoints — the Monte-Carlo
// counterpart of the analytic effective density D_EFF = D_RAW·Y².
func (m *Memory) UsableBits() int {
	return m.Rows.AddressableCount() * m.Cols.AddressableCount()
}

// UsableFraction returns the working fraction of the raw crosspoints.
func (m *Memory) UsableFraction() float64 {
	r, c := m.Size()
	return float64(m.UsableBits()) / float64(r*c)
}
