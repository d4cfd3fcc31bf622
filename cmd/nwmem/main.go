// Command nwmem operates a simulated MSPT crossbar memory like a memory
// controller would: it fabricates the array (Monte-Carlo), discovers the
// defective wires with a functional March C- test, builds the
// defect-avoiding logical address space, and stores/retrieves user data
// through the Hamming-ECC layer. The defect map can be dumped as JSON.
//
// Usage:
//
//	nwmem [-code tc|gc|bgc|hc|ahc] [-length M] [-seed S]
//	      [-data "text to store"] [-faults N] [-dumpmap]
//	      [-format text|json|csv|md] [-timeout D]
//	      [-metrics text|json|csv|md] [-metrics-out FILE] [-pprof DIR]
//
// Text output prints the recovered payload on stdout (the controller log
// goes to stderr); the structured formats emit a one-row session summary
// dataset instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"nwdec/internal/cli"
	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/crossbar"
	"nwdec/internal/dataset"
	"nwdec/internal/stats"
)

func main() {
	var (
		typeName = flag.String("code", "bgc", "code family: tc, gc, bgc, hc, ahc")
		length   = flag.Int("length", 0, "code length M (default 10 tree-based, 6 hot)")
		seed     = flag.Uint64("seed", 2009, "fabrication seed")
		data     = flag.String("data", "Decoding nanowire arrays with the MSPT.", "payload to store through the ECC layer")
		faults   = flag.Int("faults", 8, "soft single-bit faults to inject before readback")
		dumpMap  = flag.Bool("dumpmap", false, "dump the March-test defect map as JSON and exit")
	)
	c := cli.Register("nwmem", "text")
	flag.Parse()
	ctx, cancel := c.Context()
	defer cancel()
	defer c.Close()

	tp, err := code.ParseType(*typeName)
	if err != nil {
		c.Exit(err)
	}
	design, err := core.NewDesign(core.Config{CodeType: tp, CodeLength: *length})
	if err != nil {
		c.Exit(err)
	}
	// The fault injection below continues the stream the fabrication
	// consumed, so the whole session stays a pure function of the seed.
	rng := stats.NewRNG(*seed)
	mem, err := design.FabricateWorkers(ctx, rng, c.Workers)
	if err != nil {
		c.Exit(err)
	}
	rows, cols := mem.Size()
	fmt.Fprintf(os.Stderr, "fabricated %dx%d crossbar (%s, M=%d), usable %.1f%%\n",
		rows, cols, tp, design.Config.CodeLength, 100*mem.UsableFraction())

	// Manufacturing test: discover defects functionally.
	marchFaults := crossbar.MarchCMinus(mem)
	dm, err := crossbar.DefectMapFromFaults(marchFaults, rows, cols)
	if err != nil {
		c.Exit(err)
	}
	fmt.Fprintf(os.Stderr, "March C-: %d faulty crosspoints -> %d bad rows, %d bad columns\n",
		len(marchFaults), len(dm.BadRows), len(dm.BadCols))
	if *dumpMap {
		if err := dm.Write(os.Stdout); err != nil {
			c.Exit(err)
		}
		return
	}

	lm := crossbar.NewLogicalMemory(mem)
	ecc := crossbar.NewECCMemory(lm)
	fmt.Fprintf(os.Stderr, "logical capacity: %d bits, ECC capacity: %d bytes\n",
		lm.Capacity(), ecc.CapacityBytes())

	payload := []byte(*data)
	if len(payload) > ecc.CapacityBytes() {
		c.Exit(fmt.Errorf("payload of %d bytes exceeds ECC capacity %d", len(payload), ecc.CapacityBytes()))
	}
	if err := ecc.StoreBytes(0, payload); err != nil {
		c.Exit(err)
	}
	for i := 0; i < *faults; i++ {
		bit := rng.Intn(14 * len(payload))
		if err := ecc.FlipRawBit(bit); err != nil {
			c.Exit(err)
		}
	}
	back, err := ecc.LoadBytes(0, len(payload))
	if err != nil {
		c.Exit(err)
	}
	fmt.Fprintf(os.Stderr, "injected %d soft faults, ECC corrected %d\n", *faults, ecc.Corrected())
	if c.Format() != dataset.FormatText {
		c.Emit(sessionDataset(design, *seed, mem, len(marchFaults), dm, lm, ecc,
			*faults, string(back) == string(payload)))
	} else {
		fmt.Printf("%s\n", back)
	}
	if string(back) != string(payload) {
		c.Exit(fmt.Errorf("payload corrupted after readback"))
	}
}

// sessionDataset summarizes one controller session as a one-row dataset.
func sessionDataset(design *core.Design, seed uint64, mem *crossbar.Memory,
	marchFaults int, dm crossbar.DefectMap, lm *crossbar.LogicalMemory,
	ecc *crossbar.ECCMemory, injected int, payloadOK bool) *dataset.Dataset {
	ds := dataset.New("nwmem", "Crossbar memory controller session",
		dataset.Col("code", dataset.String),
		dataset.Col("M", dataset.Int),
		dataset.Col("usableFraction", dataset.Float),
		dataset.Col("marchFaults", dataset.Int),
		dataset.Col("badRows", dataset.Int),
		dataset.Col("badCols", dataset.Int),
		dataset.ColUnit("logicalCapacity", "bits", dataset.Int),
		dataset.ColUnit("eccCapacity", "bytes", dataset.Int),
		dataset.Col("injectedFaults", dataset.Int),
		dataset.Col("corrected", dataset.Int),
		dataset.Col("payloadOK", dataset.Bool),
	)
	ds.AddRow(
		design.Config.CodeType.String(),
		design.Config.CodeLength,
		mem.UsableFraction(),
		marchFaults,
		len(dm.BadRows),
		len(dm.BadCols),
		lm.Capacity(),
		ecc.CapacityBytes(),
		injected,
		ecc.Corrected(),
		payloadOK,
	)
	ds.Meta.Seed = seed
	ds.Meta.ConfigHash = design.Config.Fingerprint()
	return ds
}
