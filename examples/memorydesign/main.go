// Memorydesign builds a complete 16 kbit crossbar memory: it designs the
// decoder, fabricates both layers with the Monte-Carlo process simulator,
// stores a bit pattern through the functional addressing path, reads it back
// and reports the usable capacity against the analytic prediction.
package main

import (
	"context"
	"fmt"
	"log"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/crossbar"
	"nwdec/internal/stats"
)

func main() {
	design, err := core.NewDesign(core.Config{CodeType: code.TypeBalancedGray, CodeLength: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(design.Report())

	dec, err := crossbar.NewDecoder(design.Plan, design.Quantizer)
	if err != nil {
		log.Fatal(err)
	}
	ctx, rng := context.Background(), stats.NewRNG(2009)
	rows, err := crossbar.BuildLayerWorkers(ctx, dec, design.Layout.Contact,
		design.Layout.WiresPerLayer, design.Config.SigmaT, rng, 0)
	if err != nil {
		log.Fatal(err)
	}
	cols, err := crossbar.BuildLayerWorkers(ctx, dec, design.Layout.Contact,
		design.Layout.WiresPerLayer, design.Config.SigmaT, rng, 0)
	if err != nil {
		log.Fatal(err)
	}
	mem := crossbar.NewMemory(rows, cols)

	nr, nc := mem.Size()
	fmt.Printf("\nfabricated memory: %dx%d crosspoints\n", nr, nc)
	fmt.Printf("row layer yield: %.1f%%, column layer yield: %.1f%%\n",
		100*rows.Yield(), 100*cols.Yield())
	fmt.Printf("usable bits: %d of %d (%.1f%%; analytic Y² predicts %.1f%%)\n",
		mem.UsableBits(), nr*nc, 100*mem.UsableFraction(),
		100*design.Yield()*design.Yield())

	// Store a diagonal-stripe pattern in every usable crosspoint.
	written := 0
	for r := 0; r < nr; r++ {
		for c := 0; c < nc; c++ {
			if !mem.Usable(r, c) {
				continue
			}
			if err := mem.Write(r, c, (r+c)%3 == 0); err != nil {
				log.Fatalf("write (%d,%d): %v", r, c, err)
			}
			written++
		}
	}
	// Verify the read path.
	errors := 0
	for r := 0; r < nr; r++ {
		for c := 0; c < nc; c++ {
			if !mem.Usable(r, c) {
				continue
			}
			bit, err := mem.Read(r, c)
			if err != nil {
				log.Fatalf("read (%d,%d): %v", r, c, err)
			}
			if bit != ((r+c)%3 == 0) {
				errors++
			}
		}
	}
	fmt.Printf("wrote and verified %d bits, %d read errors\n", written, errors)

	// Demonstrate defect handling: accessing an unaddressable wire fails
	// with a typed error instead of silently corrupting data.
	for r := 0; r < nr; r++ {
		if !mem.Rows.Wires[r].Addressable {
			err := mem.Write(r, 0, true)
			fmt.Printf("write through defective row %d: %v\n", r, err)
			break
		}
	}
}
