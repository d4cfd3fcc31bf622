package crossbar

import (
	"fmt"

	"nwdec/internal/geometry"
)

// NominalTable is the zero-variability decode map of one contact group: for
// every applied code word, the set of wire indices (within the group window)
// that conduct.
type NominalTable struct {
	// Lo, Hi bound the group's wire window [Lo, Hi).
	Lo, Hi int
	// Conducting[w] lists the wires conducting under the address of the
	// w-th wire's word.
	Conducting [][]int
}

// NominalAddressing computes the decode table of one contact group at
// nominal thresholds (no variability). A correct decoder design yields
// exactly one conducting wire per address; duplicated code words (possible
// when the lithographic minimum group width exceeds the code space) show up
// as multi-wire rows.
func (d *Decoder) NominalAddressing(lo, hi int) (*NominalTable, error) {
	if lo < 0 || hi > d.Plan.N() || lo >= hi {
		return nil, fmt.Errorf("crossbar: invalid group window [%d, %d) for %d wires", lo, hi, d.Plan.N())
	}
	t := &NominalTable{Lo: lo, Hi: hi, Conducting: make([][]int, hi-lo)}
	for i := lo; i < hi; i++ {
		va := d.va[i]
		for k := lo; k < hi; k++ {
			// At nominal thresholds, conduction is exactly digit-wise
			// domination; use the voltage comparison (over the decoder's
			// precomputed nominal-threshold rows) to exercise the same
			// path the Monte-Carlo simulator uses.
			if Conducts(d.nominal[k], va) {
				t.Conducting[i-lo] = append(t.Conducting[i-lo], k)
			}
		}
	}
	return t, nil
}

// Unique reports whether every address selects exactly one wire.
func (t *NominalTable) Unique() bool {
	for i, wires := range t.Conducting {
		if len(wires) != 1 || wires[0] != t.Lo+i {
			return false
		}
	}
	return true
}

// Ambiguous returns the in-group indices whose address selects zero or more
// than one wire.
func (t *NominalTable) Ambiguous() []int {
	var out []int
	for i, wires := range t.Conducting {
		if len(wires) != 1 || wires[0] != t.Lo+i {
			out = append(out, t.Lo+i)
		}
	}
	return out
}

// VerifyDecoder checks the paper's uniqueness requirement for a full plan
// partitioned by the contact plan: every contact group's nominal decode
// table must be unique. It is the executable form of "the first specific
// decoder for this fabrication technology that uniquely addresses every
// nanowire".
func VerifyDecoder(d *Decoder, contact geometry.ContactPlan) error {
	n := d.Plan.N()
	group := contact.GroupWires
	if group <= 0 {
		group = n
	}
	for lo := 0; lo < n; lo += group {
		hi := lo + group
		if hi > n {
			hi = n
		}
		table, err := d.NominalAddressing(lo, hi)
		if err != nil {
			return err
		}
		if !table.Unique() {
			return fmt.Errorf("crossbar: group [%d, %d) has ambiguous addresses at wires %v",
				lo, hi, table.Ambiguous())
		}
	}
	return nil
}
