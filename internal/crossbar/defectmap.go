package crossbar

import (
	"encoding/json"
	"io"
)

// DefectMap records a fabricated crossbar's hard defects: which row and
// column wires failed addressability testing. Write dumps it as JSON, the
// output of nwmem -dumpmap.
type DefectMap struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// BadRows / BadCols list the defective wire indices, ascending.
	BadRows []int `json:"badRows"`
	BadCols []int `json:"badCols"`
}

// ExtractDefectMap reads the defect map out of a fabricated memory.
func ExtractDefectMap(m *Memory) DefectMap {
	dm := DefectMap{Rows: len(m.Rows.Wires), Cols: len(m.Cols.Wires)}
	for i, w := range m.Rows.Wires {
		if !w.Addressable {
			dm.BadRows = append(dm.BadRows, i)
		}
	}
	for i, w := range m.Cols.Wires {
		if !w.Addressable {
			dm.BadCols = append(dm.BadCols, i)
		}
	}
	return dm
}

// UsableBits returns the number of working crosspoints implied by the map.
func (dm DefectMap) UsableBits() int {
	return (dm.Rows - len(dm.BadRows)) * (dm.Cols - len(dm.BadCols))
}

// Write serializes the map as JSON.
func (dm DefectMap) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dm)
}
