package yield

import (
	"fmt"
	"math"

	"nwdec/internal/geometry"
	"nwdec/internal/mspt"
)

// Sensitivity estimates the local logarithmic sensitivities of the yield to
// the two analyzer parameters with central finite differences:
// d(lnY)/d(lnσ_T) and d(lnY)/d(ln margin). A yield with |S_sigma| well above
// |S_margin| is variability-limited; the reverse is sensing-limited.
type Sensitivity struct {
	Sigma  float64 // d ln Y / d ln σ_T  (negative: more noise, less yield)
	Margin float64 // d ln Y / d ln margin (positive)
}

// Sensitivities evaluates the local sensitivities at the analyzer's
// operating point with the given relative step (e.g. 0.01).
func (a Analyzer) Sensitivities(plan *mspt.Plan, contact geometry.ContactPlan, relStep float64) (Sensitivity, error) {
	if relStep <= 0 || relStep >= 0.5 {
		return Sensitivity{}, fmt.Errorf("yield: relative step %g outside (0, 0.5)", relStep)
	}
	base := a.AnalyzeHalfCave(plan, contact).Yield
	if base <= 0 {
		return Sensitivity{}, fmt.Errorf("yield: zero yield at operating point, sensitivities undefined")
	}
	logDeriv := func(up, down Analyzer) float64 {
		yUp := up.AnalyzeHalfCave(plan, contact).Yield
		yDown := down.AnalyzeHalfCave(plan, contact).Yield
		if yUp <= 0 || yDown <= 0 {
			return 0
		}
		return (ln(yUp) - ln(yDown)) / (2 * relStep)
	}
	s := Sensitivity{
		Sigma: logDeriv(
			Analyzer{SigmaT: a.SigmaT * (1 + relStep), Margin: a.Margin},
			Analyzer{SigmaT: a.SigmaT * (1 - relStep), Margin: a.Margin}),
		Margin: logDeriv(
			Analyzer{SigmaT: a.SigmaT, Margin: a.Margin * (1 + relStep)},
			Analyzer{SigmaT: a.SigmaT, Margin: a.Margin * (1 - relStep)}),
	}
	return s, nil
}

// ln aliases math.Log so the finite-difference code reads like the math.
func ln(x float64) float64 { return math.Log(x) }
