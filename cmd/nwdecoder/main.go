// Command nwdecoder designs an MSPT nanowire decoder for a crossbar memory:
// it resolves the code arrangement, doping plan, fabrication complexity,
// variability, yield and bit area for one configuration, or sweeps the
// design space and reports the optimum.
//
// Usage:
//
//	nwdecoder [-type tc|gc|bgc|hc|ahc] [-base n] [-length M]
//	          [-wires N] [-rawbits D] [-sigma V] [-margin F]
//	          [-optimize area|yield|phi] [-flow] [-matrices]
//	          [-format text|json|csv|md] [-timeout D]
//	          [-metrics text|json|csv|md] [-metrics-out FILE] [-pprof DIR]
//
// -format selects the rendering of the design summary (text is the full
// report; the structured forms carry the one-row analysis table).
package main

import (
	"flag"
	"fmt"
	"os"

	"nwdec/internal/cli"
	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
	"nwdec/internal/viz"
)

func main() {
	var (
		typeName = flag.String("type", "bgc", "code family: tc, gc, bgc, hc, ahc")
		base     = flag.Int("base", 2, "logic valency n")
		length   = flag.Int("length", 0, "code length M (default 10 tree-based, 6 hot)")
		wires    = flag.Int("wires", 0, "nanowires per half cave (default 20)")
		rawBits  = flag.Int("rawbits", 0, "raw crosspoint count (default 16384)")
		sigma    = flag.Float64("sigma", 0, "per-dose threshold deviation in volts (default 0.05)")
		margin   = flag.Float64("margin", 0, "margin factor (default 1.0)")
		optimize = flag.String("optimize", "", "sweep all families and optimize: area, yield or phi")
		showFlow = flag.Bool("flow", false, "print the fabrication-flow event log")
		showMat  = flag.Bool("matrices", false, "print the P, D, S and ν matrices")
		export   = flag.String("export", "", "dump the doping plan to stdout: json, csv, svg (layout) or masks-svg")
		showMask = flag.Bool("masks", false, "print the mask-reuse analysis")
	)
	c := cli.Register("nwdecoder", "text")
	flag.Parse()
	ctx, cancel := c.Context()
	defer cancel()
	defer c.Close()

	tp, err := code.ParseType(*typeName)
	if err != nil {
		c.Exit(err)
	}
	spec, err := cli.Spec(*wires, *rawBits)
	if err != nil {
		c.Exit(err)
	}
	cfg := core.Config{CodeType: tp, Base: *base, CodeLength: *length,
		Spec: spec, SigmaT: *sigma, MarginFactor: *margin}

	var obj core.Objective
	if *optimize != "" {
		if obj, err = core.ParseObjective(*optimize); err != nil {
			c.Exit(err)
		}
	}
	// core.NewDesign takes no context, so an expired -timeout is caught
	// before any work starts.
	if err := ctx.Err(); err != nil {
		c.Exit(err)
	}
	var design *core.Design
	if *optimize != "" {
		design, err = core.Optimize(ctx, cfg, code.AllTypes(), []int{4, 6, 8, 10, 12}, obj, c.Workers)
	} else {
		design, err = core.NewDesign(cfg)
	}
	if err != nil {
		c.Exit(err)
	}
	if *optimize != "" && c.Format() == dataset.FormatText {
		fmt.Printf("optimum over all families and lengths (objective %s):\n\n", *optimize)
	}
	if *export != "" {
		// Machine output only: keep stdout clean for piping.
		switch *export {
		case "json":
			if err := design.Plan.WriteJSON(os.Stdout); err != nil {
				c.Exit(err)
			}
		case "csv":
			if err := design.Plan.WriteCSV(os.Stdout); err != nil {
				c.Exit(err)
			}
		case "svg":
			fmt.Print(viz.DecoderSVG(design.Plan, design.Config.Spec.Params, design.Layout.Contact))
		case "masks-svg":
			fmt.Print(viz.MaskSVG(design.Plan, design.Config.Spec.Params))
		default:
			c.Exit(nwerr.Invalidf("unknown export format %q (want json, csv, svg or masks-svg)", *export))
		}
		return
	}
	if c.Format() != dataset.FormatText {
		// Structured output only: the flow/matrix/mask inspections are
		// text-form diagnostics.
		c.Emit(design.Dataset())
		return
	}
	fmt.Print(design.Report())
	if *showMask {
		set := design.Plan.Masks()
		fmt.Printf("\nmask set: %d distinct masks for %d passes (reuse factor %.2f)\n",
			set.DistinctMasks(), set.Passes, set.ReuseFactor())
		for _, m := range set.Masks {
			fmt.Printf("  regions %v: %d passes\n", m.Regions, len(m.Passes))
		}
	}
	if *showMat {
		fmt.Println("\npattern matrix P (rows = nanowires in definition order):")
		for _, w := range design.Plan.Pattern() {
			fmt.Printf("  %s\n", w)
		}
		fmt.Println("final doping matrix D (dose units):")
		printMatrix(design.Plan.D())
		fmt.Println("step doping matrix S (dose units; negative = n-type compensation):")
		printMatrix(design.Plan.S())
		fmt.Println("dose-count matrix ν:")
		for _, row := range design.Plan.Nu() {
			fmt.Printf("  %v\n", row)
		}
	}
	if *showFlow {
		fmt.Println("\nfabrication flow:")
		res := design.Plan.Run()
		for _, e := range res.Events {
			fmt.Println(" ", e)
		}
		fmt.Printf("total: %d spacers, %d litho/doping passes (Φ)\n",
			design.Plan.N(), res.LithoSteps)
	}
}

func printMatrix(m [][]int64) {
	for _, row := range m {
		fmt.Print(" ")
		for _, v := range row {
			fmt.Printf(" %5d", v)
		}
		fmt.Println()
	}
}
