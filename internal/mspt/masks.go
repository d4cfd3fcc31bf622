package mspt

import (
	"fmt"
	"sort"
	"strings"
)

// MaskUsage describes one photolithography mask of the decoder flow: the set
// of doping-region columns it exposes, and every (step, dose) pass it is
// used in. Masks define geometry only — the same window pattern can be
// reused for different implant doses and at different steps — so the number
// of *distinct* masks, not the number of passes Φ, drives the mask-set cost
// of the process.
type MaskUsage struct {
	// Regions is the exposed column set, ascending.
	Regions []int
	// Passes lists the lithography/doping passes using this mask.
	Passes []MaskPass
}

// MaskPass is one use of a mask.
type MaskPass struct {
	// Step is the spacer-definition step the pass follows.
	Step int
	// Dose is the implantation dose in dose units.
	Dose int64
}

// MaskSet is the mask-cost analysis of a plan.
type MaskSet struct {
	// Masks lists the distinct masks, most-used first (ties: by region
	// signature).
	Masks []MaskUsage
	// Passes is the total number of lithography/doping passes (= Φ).
	Passes int
}

// DistinctMasks returns the number of distinct window patterns needed.
func (m MaskSet) DistinctMasks() int { return len(m.Masks) }

// ReuseFactor returns passes per distinct mask (>= 1); higher is cheaper.
func (m MaskSet) ReuseFactor() float64 {
	if len(m.Masks) == 0 {
		return 0
	}
	return float64(m.Passes) / float64(len(m.Masks))
}

// Masks computes the mask-reuse analysis of the plan: every
// lithography/doping pass is keyed by its exposed region set, and passes
// sharing a window pattern share a physical mask.
func (p *Plan) Masks() MaskSet {
	byKey := make(map[string]*MaskUsage)
	passes := 0
	doses := make([]int64, 0, p.m)
	for i := 0; i < p.n; i++ {
		doses = distinctNonZero(doses, p.s[i])
		for _, dose := range doses {
			var regions []int
			for j, v := range p.s[i] {
				if v == dose {
					regions = append(regions, j)
				}
			}
			key := regionKey(regions)
			mu, ok := byKey[key]
			if !ok {
				mu = &MaskUsage{Regions: regions}
				byKey[key] = mu
			}
			mu.Passes = append(mu.Passes, MaskPass{Step: i, Dose: dose})
			passes++
		}
	}
	set := MaskSet{Passes: passes}
	for _, mu := range byKey {
		set.Masks = append(set.Masks, *mu)
	}
	sort.Slice(set.Masks, func(a, b int) bool {
		ma, mb := set.Masks[a], set.Masks[b]
		if len(ma.Passes) != len(mb.Passes) {
			return len(ma.Passes) > len(mb.Passes)
		}
		return regionKey(ma.Regions) < regionKey(mb.Regions)
	})
	return set
}

func regionKey(regions []int) string {
	parts := make([]string, len(regions))
	for i, r := range regions {
		parts[i] = fmt.Sprintf("%03d", r)
	}
	return strings.Join(parts, ",")
}
