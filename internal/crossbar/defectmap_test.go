package crossbar

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

func TestExtractDefectMap(t *testing.T) {
	mem := buildTestMemory(t, []int{2, 9}, []int{4})
	dm := ExtractDefectMap(mem)
	if dm.Rows != 16 || dm.Cols != 16 {
		t.Errorf("dimensions %dx%d", dm.Rows, dm.Cols)
	}
	if len(dm.BadRows) != 2 || dm.BadRows[0] != 2 || dm.BadRows[1] != 9 {
		t.Errorf("BadRows = %v", dm.BadRows)
	}
	if len(dm.BadCols) != 1 || dm.BadCols[0] != 4 {
		t.Errorf("BadCols = %v", dm.BadCols)
	}
	if dm.UsableBits() != mem.UsableBits() {
		t.Errorf("usable bits %d vs %d", dm.UsableBits(), mem.UsableBits())
	}
}

// TestDefectMapRoundTrip decodes the JSON that Write produces (the
// nwmem -dumpmap output) and compares every field with the map written.
func TestDefectMapRoundTrip(t *testing.T) {
	mem := buildTestMemory(t, []int{0, 7}, []int{1, 15})
	dm := ExtractDefectMap(mem)
	var buf bytes.Buffer
	if err := dm.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// The field names are the dump's public form, so they are spelled out
	// here instead of read back through DefectMap's own tags.
	var back struct {
		Rows    int   `json:"rows"`
		Cols    int   `json:"cols"`
		BadRows []int `json:"badRows"`
		BadCols []int `json:"badCols"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Rows != dm.Rows || back.Cols != dm.Cols || !slices.Equal(back.BadRows, dm.BadRows) || !slices.Equal(back.BadCols, dm.BadCols) {
		t.Errorf("decoded %+v, want %+v", back, dm)
	}
}
