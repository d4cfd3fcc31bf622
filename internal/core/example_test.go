package core_test

import (
	"context"
	"fmt"

	"nwdec/internal/code"
	"nwdec/internal/core"
)

// A complete decoder design on the paper's default 16 kbit platform: the
// balanced Gray code with M = 10 yields the paper's best tree-family
// operating point.
func ExampleNewDesign() {
	design, _ := core.NewDesign(core.Config{CodeType: code.TypeBalancedGray})
	fmt.Printf("Φ = %d steps\n", design.Phi)
	fmt.Printf("yield = %.1f%%\n", 100*design.Yield())
	fmt.Printf("bit area = %.0f nm²\n", design.BitArea())
	// Output:
	// Φ = 40 steps
	// yield = 93.0%
	// bit area = 192 nm²
}

// The optimizer explores every family and length and lands on an optimized
// code, mirroring the paper's conclusion.
func ExampleOptimize() {
	best, _ := core.Optimize(context.Background(), core.Config{}, code.AllTypes(),
		[]int{4, 6, 8, 10}, core.MinBitArea, 0)
	fmt.Printf("%s M=%d\n", best.Config.CodeType, best.Config.CodeLength)
	// Output:
	// AHC M=6
}
