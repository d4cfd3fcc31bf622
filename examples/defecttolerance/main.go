// Defecttolerance demonstrates the full defect-tolerance stack over a
// fabricated crossbar: the decoder design, the mask-reuse analysis of its
// fabrication flow, the defect-avoiding logical address remap, and a
// Hamming(7,4) ECC layer that survives soft single-bit faults injected on
// top of the hard defect map.
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
	design, err := core.NewDesign(core.Config{CodeType: code.TypeArrangedHot, CodeLength: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(design.Report())

	// Fabrication economics: distinct masks vs implant passes.
	set := design.Plan.Masks()
	fmt.Printf("\nmask economics: %d passes (Φ) served by %d distinct masks (reuse %.1fx)\n",
		set.Passes, set.DistinctMasks(), set.ReuseFactor())

	// Fabricate both layers.
	rng := stats.NewRNG(4242)
	mem, err := design.FabricateWorkers(context.Background(), rng, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfabricated: %.1f%% of crosspoints usable (hard defects mapped out)\n",
		100*mem.UsableFraction())

	// Level 1: defect-avoiding logical address space.
	lm := crossbar.NewLogicalMemory(mem)
	fmt.Printf("logical memory: %d contiguous bit addresses\n", lm.Capacity())

	// Level 2: ECC for soft faults.
	ecc := crossbar.NewECCMemory(lm)
	msg := []byte("The Gray code minimizes both the fabrication cost and the decoder variability.")
	if len(msg) > ecc.CapacityBytes() {
		log.Fatalf("message exceeds ECC capacity %d", ecc.CapacityBytes())
	}
	if err := ecc.StoreBytes(0, msg); err != nil {
		log.Fatal(err)
	}

	// Inject one soft single-bit fault into every stored codeword.
	faults := 0
	for cw := 0; cw < 2*len(msg); cw++ {
		if err := ecc.FlipRawBit(7*cw + int(rng.Intn(7))); err != nil {
			log.Fatal(err)
		}
		faults++
	}
	back, err := ecc.LoadBytes(0, len(msg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninjected %d soft faults; ECC corrected %d on read\n", faults, ecc.Corrected())
	fmt.Printf("recovered message: %q\n", back)
	if string(back) != string(msg) {
		log.Fatal("data corruption despite ECC")
	}
	fmt.Println("round trip intact.")
}
