package crossbar

import (
	"bytes"
	"context"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/geometry"
	"nwdec/internal/stats"
)

// buildTestMemory fabricates a small memory with some wires forced
// defective.
func buildTestMemory(t *testing.T, defectRows, defectCols []int) *Memory {
	t.Helper()
	d := testDecoder(t, code.TypeGray, 8, 16)
	contact := geometry.ContactPlan{GroupWires: 16, Groups: 1}
	rng := stats.NewRNG(5)
	rows, err := BuildLayerWorkers(context.Background(), d, contact, 16, 0, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := BuildLayerWorkers(context.Background(), d, contact, 16, 0, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range defectRows {
		rows.Wires[r].Addressable = false
	}
	for _, c := range defectCols {
		cols.Wires[c].Addressable = false
	}
	return NewMemory(rows, cols)
}

func TestLogicalMemoryCapacity(t *testing.T) {
	mem := buildTestMemory(t, []int{0, 5}, []int{3})
	lm := NewLogicalMemory(mem)
	if got := lm.Capacity(); got != 14*15 {
		t.Errorf("Capacity = %d, want %d", got, 14*15)
	}
	if lm.Capacity() != mem.UsableBits() {
		t.Error("logical capacity != usable bits")
	}
}

func TestLogicalMapSkipsDefects(t *testing.T) {
	mem := buildTestMemory(t, []int{0}, []int{0, 1})
	lm := NewLogicalMemory(mem)
	r, c, err := lm.Map(0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 || c != 2 {
		t.Errorf("address 0 maps to (%d,%d), want (1,2)", r, c)
	}
	// Every logical address maps to a usable crosspoint, injectively.
	seen := make(map[[2]int]bool)
	for a := 0; a < lm.Capacity(); a++ {
		r, c, err := lm.Map(a)
		if err != nil {
			t.Fatal(err)
		}
		if !mem.Usable(r, c) {
			t.Fatalf("address %d maps to defective (%d,%d)", a, r, c)
		}
		key := [2]int{r, c}
		if seen[key] {
			t.Fatalf("address %d re-maps crosspoint (%d,%d)", a, r, c)
		}
		seen[key] = true
	}
}

func TestLogicalMapBounds(t *testing.T) {
	lm := NewLogicalMemory(buildTestMemory(t, nil, nil))
	if _, _, err := lm.Map(-1); err == nil {
		t.Error("negative address accepted")
	}
	if _, _, err := lm.Map(lm.Capacity()); err == nil {
		t.Error("address == capacity accepted")
	}
}

func TestLogicalStoreLoad(t *testing.T) {
	lm := NewLogicalMemory(buildTestMemory(t, []int{2}, []int{7}))
	for a := 0; a < lm.Capacity(); a += 7 {
		if err := lm.Store(a, a%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < lm.Capacity(); a += 7 {
		v, err := lm.Load(a)
		if err != nil {
			t.Fatal(err)
		}
		if v != (a%2 == 0) {
			t.Fatalf("address %d = %v", a, v)
		}
	}
}

func TestLogicalBytesRoundTrip(t *testing.T) {
	lm := NewLogicalMemory(buildTestMemory(t, []int{1, 3}, []int{2}))
	msg := []byte("MSPT nanowire crossbar")
	if err := lm.StoreBytes(16, msg); err != nil {
		t.Fatal(err)
	}
	back, err := lm.LoadBytes(16, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Errorf("round trip = %q", back)
	}
}

func TestLogicalBytesBounds(t *testing.T) {
	lm := NewLogicalMemory(buildTestMemory(t, nil, nil))
	huge := make([]byte, lm.Capacity()/8+1)
	if err := lm.StoreBytes(0, huge); err == nil {
		t.Error("overrun store accepted")
	}
	if _, err := lm.LoadBytes(0, lm.Capacity()/8+1); err == nil {
		t.Error("overrun load accepted")
	}
	if _, err := lm.LoadBytes(-1, 1); err == nil {
		t.Error("negative address accepted")
	}
	if _, err := lm.LoadBytes(0, -1); err == nil {
		t.Error("negative length accepted")
	}
}

func TestLogicalMemoryFullyDefective(t *testing.T) {
	all := make([]int, 16)
	for i := range all {
		all[i] = i
	}
	lm := NewLogicalMemory(buildTestMemory(t, all, nil))
	if lm.Capacity() != 0 {
		t.Errorf("capacity = %d, want 0", lm.Capacity())
	}
	if _, _, err := lm.Map(0); err == nil {
		t.Error("mapping into empty memory accepted")
	}
}
