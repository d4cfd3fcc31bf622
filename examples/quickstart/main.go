// Quickstart: design an MSPT nanowire decoder for the paper's 16 kbit
// crossbar platform and print its full analysis, then let the optimizer pick
// the best code family and length.
package main

import (
	"context"
	"fmt"
	"log"

	"nwdec/internal/code"
	"nwdec/internal/core"
)

func main() {
	// 1. A single design: balanced Gray code, defaults for everything else
	//    (binary logic, M=10, 16 kbit crossbar, σ_T = 50 mV).
	design, err := core.NewDesign(core.Config{CodeType: code.TypeBalancedGray})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- single design -------------------------------------------")
	fmt.Print(design.Report())

	// 2. The decoder's code arrangement: the first few nanowire patterns.
	fmt.Println("\nfirst nanowire patterns (reflected balanced Gray words):")
	for i, w := range design.Plan.Pattern()[:6] {
		fmt.Printf("  wire %d: %s\n", i, w)
	}

	// 3. Design-space optimization: all five families, lengths 4..12.
	best, err := core.Optimize(context.Background(), core.Config{},
		code.AllTypes(), []int{4, 6, 8, 10, 12}, core.MinBitArea, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- optimizer: smallest effective bit area ------------------")
	fmt.Print(best.Report())
}
