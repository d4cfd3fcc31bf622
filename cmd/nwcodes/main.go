// Command nwcodes generates and inspects nanowire code arrangements: it
// prints the word sequence of any code family together with its transition
// statistics — the quantities that determine the fabrication complexity and
// variability of the MSPT decoder.
//
// Usage:
//
//	nwcodes [-type tc|gc|bgc|hc|ahc] [-base n] [-length M] [-count N]
//	        [-format text|json|csv|md] [-timeout D]
//	        [-metrics text|json|csv|md] [-metrics-out FILE] [-pprof DIR]
//
// The structured formats carry one row per word (index, word, digit changes
// from the previous word); text keeps the annotated listing. Listings are
// produced by the internal/engine serving layer (its codes kind), the same
// dataset the nwserve HTTP facade returns.
package main

import (
	"flag"

	"nwdec/internal/cli"
	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/engine"
)

func main() {
	var (
		typeName = flag.String("type", "gc", "code family: tc, gc, bgc, hc, ahc")
		base     = flag.Int("base", 2, "logic valency n")
		length   = flag.Int("length", 8, "total code length M (including reflection for tree-based codes)")
		count    = flag.Int("count", 0, "number of words to emit (default: whole space, capped at 64)")
	)
	c := cli.Register("nwcodes", "text")
	flag.Parse()
	// The generators are synchronous, so the context itself is unused, but
	// Context/Close bracket the run to activate -metrics and -pprof.
	ctx, cancel := c.Context()
	defer cancel()
	defer c.Close()

	tp, err := code.ParseType(*typeName)
	if err != nil {
		c.Exit(err)
	}
	eng, err := engine.New(engine.Options{})
	if err != nil {
		c.Exit(err)
	}
	resp, err := eng.Do(ctx, engine.Request{
		Kind:   engine.KindCodes,
		Config: core.Config{CodeType: tp, Base: *base, CodeLength: *length},
		Count:  *count,
	})
	if err != nil {
		c.Exit(err)
	}
	c.Emit(resp.Dataset)
}
