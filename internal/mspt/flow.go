package mspt

import (
	"fmt"
	"slices"

	"nwdec/internal/stats"
)

// EventKind discriminates fabrication-flow events.
type EventKind int

// Flow event kinds, in the order they occur per spacer.
const (
	// EventSpacer is the conformal deposition + anisotropic etch defining
	// one poly-Si spacer (steps 2-3 of Fig. 2).
	EventSpacer EventKind = iota
	// EventLithoDose is one photolithography masking + implantation pass
	// applying a single dose value to selected regions of all spacers
	// defined so far (Fig. 4).
	EventLithoDose
)

// Event is one entry of the fabrication-flow log.
type Event struct {
	Kind EventKind
	// Spacer is the index of the spacer being defined (EventSpacer) or the
	// step-doping procedure the pass belongs to (EventLithoDose).
	Spacer int
	// Dose is the implantation dose in dose units (EventLithoDose only).
	// Negative doses are n-type compensation implants.
	Dose int64
	// Regions are the doping-region columns exposed by the mask
	// (EventLithoDose only), ascending.
	Regions []int
}

// String renders the event for flow listings.
func (e Event) String() string {
	switch e.Kind {
	case EventSpacer:
		return fmt.Sprintf("define spacer %d", e.Spacer)
	case EventLithoDose:
		return fmt.Sprintf("litho+implant after spacer %d: dose %+d units on regions %v (hits spacers 0..%d)",
			e.Spacer, e.Dose, e.Regions, e.Spacer)
	default:
		return fmt.Sprintf("event(%d)", int(e.Kind))
	}
}

// FlowResult is the outcome of replaying the fabrication flow.
type FlowResult struct {
	// Doping is the accumulated doping of every region in dose units; by
	// Proposition 2 it must equal the plan's final doping matrix D.
	Doping [][]int64
	// DoseOps counts how many implantation doses each region received; it
	// must equal the plan's ν matrix.
	DoseOps [][]int
	// LithoSteps is the number of lithography/doping passes performed; it
	// must equal the plan's fabrication complexity Φ.
	LithoSteps int
	// Events is the full ordered fabrication log.
	Events []Event
}

// Run replays the decoder-aware fabrication flow of the plan: spacers are
// defined in order, and after each definition the corresponding step-doping
// procedure is decomposed into one lithography/implant pass per distinct
// non-zero dose value, each pass dosing all spacers defined so far.
//
// Run is the executable counterpart of Propositions 1-2 and Definitions 4-5:
// its outputs must reproduce D, ν and Φ exactly, which the test suite and
// the Verify method check.
func (p *Plan) Run() *FlowResult {
	res := &FlowResult{
		Doping:  make([][]int64, p.n),
		DoseOps: make([][]int, p.n),
	}
	for i := range res.Doping {
		res.Doping[i] = make([]int64, p.m)
		res.DoseOps[i] = make([]int, p.m)
	}
	doses := make([]int64, 0, p.m)
	for i := 0; i < p.n; i++ {
		res.Events = append(res.Events, Event{Kind: EventSpacer, Spacer: i})
		// Group this procedure's doses by value: one mask+implant per value.
		doses = distinctNonZero(doses, p.s[i])
		for _, dose := range doses {
			var regions []int
			for j, v := range p.s[i] {
				if v == dose {
					regions = append(regions, j)
				}
			}
			res.Events = append(res.Events, Event{
				Kind: EventLithoDose, Spacer: i, Dose: dose, Regions: regions,
			})
			res.LithoSteps++
			// The implant hits every spacer defined so far (0..i) at the
			// exposed regions.
			for k := 0; k <= i; k++ {
				for _, j := range regions {
					res.Doping[k][j] += dose
					res.DoseOps[k][j]++
				}
			}
		}
	}
	return res
}

// Verify replays the flow and checks it against the plan's analytic
// matrices, returning a descriptive error on the first mismatch. It is the
// internal consistency proof that the matrix algebra and the physical flow
// agree.
func (p *Plan) Verify() error {
	res := p.Run()
	if res.LithoSteps != p.Phi() {
		return fmt.Errorf("mspt: flow used %d litho steps, Φ = %d", res.LithoSteps, p.Phi())
	}
	for i := 0; i < p.n; i++ {
		for j := 0; j < p.m; j++ {
			if res.Doping[i][j] != p.d[i][j] {
				return fmt.Errorf("mspt: flow doping[%d][%d] = %d, D = %d", i, j, res.Doping[i][j], p.d[i][j])
			}
			if res.DoseOps[i][j] != p.nu[i][j] {
				return fmt.Errorf("mspt: flow dose ops[%d][%d] = %d, ν = %d", i, j, res.DoseOps[i][j], p.nu[i][j])
			}
		}
	}
	return nil
}

// SampleVT draws one Monte-Carlo realization of the decoder's threshold
// voltages: VT[i][j] = nominal VT of the region's digit plus the accumulated
// noise of its ν[i][j] independent doses, each contributing a Gaussian
// deviation of standard deviation sigmaT. The per-dose deviations are
// independent, so their sum is sampled as one N(0, σ_T²·ν[i][j]) draw —
// identical in distribution to dose-by-dose accumulation at a fraction of
// the generator work. nominal maps digits to nominal threshold voltages
// (e.g. physics.Quantizer.VTOf).
func (p *Plan) SampleVT(rng *stats.RNG, sigmaT float64, nominal func(digit int) float64) [][]float64 {
	out := p.NewVTArena()
	p.SampleVTInto(rng, sigmaT, nominal, out)
	return out
}

// NewVTArena returns an N×M threshold matrix whose rows are windows of one
// flat array: the caller-owned buffer SampleVTInto and
// SampleVTCorrelatedInto fill, allocated once and reused across draws.
func (p *Plan) NewVTArena() [][]float64 {
	flat := make([]float64, p.n*p.m)
	out := make([][]float64, p.n)
	for i := range out {
		out[i] = flat[i*p.m : (i+1)*p.m]
	}
	return out
}

// SampleVTInto is SampleVT writing into caller-owned row buffers: dst must
// hold N rows of M floats (typically slices of one flat arena reused across
// draws). The generator consumes exactly the draws SampleVT makes, in the
// same row-major region order (one ziggurat draw per dosed region; undosed
// regions and σ_T = 0 consume nothing), so realizations are bit-identical
// to the allocating path — this is the scratch-buffer primitive of the
// Monte-Carlo fabrication loop, which resamples thousands of half caves
// without re-allocating the threshold matrix each time.
func (p *Plan) SampleVTInto(rng *stats.RNG, sigmaT float64, nominal func(digit int) float64, dst [][]float64) {
	for i := 0; i < p.n; i++ {
		row := dst[i]
		for j := 0; j < p.m; j++ {
			vt := nominal(p.pattern[i][j])
			if sigma := sigmaT * p.sqrtNu[i*p.m+j]; sigma > 0 {
				vt += sigma * rng.NormFloat64Fast()
			}
			row[j] = vt
		}
	}
}

// distinctNonZero returns the distinct non-zero values of row, ascending,
// in buf's backing array: buf's contents are discarded, and a buf with
// capacity len(row) is never reallocated, so one scratch slice serves every
// row of a plan.
func distinctNonZero(buf, row []int64) []int64 {
	out := buf[:0]
	for _, v := range row {
		if v == 0 {
			continue
		}
		if at, found := slices.BinarySearch(out, v); !found {
			out = slices.Insert(out, at, v)
		}
	}
	return out
}
