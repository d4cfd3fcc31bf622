package mspt

import "math"

// PhiPerStep returns φ_i for every lithography/doping procedure: the number
// of distinct non-zero dose values in row i of S (Definition 4). Each
// distinct dose requires its own photolithography masking and implantation
// pass, so φ_i is the number of extra fabrication steps procedure i costs.
func (p *Plan) PhiPerStep() []int {
	phis := make([]int, p.n)
	for i, row := range p.s {
		distinct := make(map[int64]bool)
		for _, v := range row {
			if v != 0 {
				distinct[v] = true
			}
		}
		phis[i] = len(distinct)
	}
	return phis
}

// Phi returns the technology complexity Φ = Σ φ_i: the total number of
// additional lithography/doping steps needed to pattern the half cave.
func (p *Plan) Phi() int {
	total := 0
	for _, phi := range p.PhiPerStep() {
		total += phi
	}
	return total
}

// Sigma returns the decoder variability matrix Σ (Definition 5):
// Σ[i][j] = σ_T² · ν[i][j], the variance of the threshold voltage of doping
// region (i, j) after ν independent implantation doses of per-dose standard
// deviation σ_T.
func (p *Plan) Sigma(sigmaT float64) [][]float64 {
	v := sigmaT * sigmaT
	out := make([][]float64, p.n)
	for i, row := range p.nu {
		o := make([]float64, p.m)
		for j, nu := range row {
			o[j] = v * float64(nu)
		}
		out[i] = o
	}
	return out
}

// SigmaNorm1 returns ‖Σ‖₁, the entrywise 1-norm of the variability matrix —
// the quantity Proposition 3 minimizes.
func (p *Plan) SigmaNorm1(sigmaT float64) float64 {
	return sigmaT * sigmaT * float64(p.NuSum())
}

// NuSum returns Σ_ij ν[i][j]; ‖Σ‖₁ = σ_T² · NuSum.
func (p *Plan) NuSum() int {
	total := 0
	for _, row := range p.nu {
		for _, nu := range row {
			total += nu
		}
	}
	return total
}

// AvgVariability returns ‖Σ‖₁ / (N·M), the paper's average variability
// figure of merit (reduced by 18% with Gray arrangements).
func (p *Plan) AvgVariability(sigmaT float64) float64 {
	return p.SigmaNorm1(sigmaT) / float64(p.n*p.m)
}

// SigmaRootNormalized returns sqrt(Σ[i][j])/σ_T = sqrt(ν[i][j]): the surface
// the paper plots in Fig. 6. It is independent of σ_T.
func (p *Plan) SigmaRootNormalized() [][]float64 {
	out := make([][]float64, p.n)
	for i, row := range p.nu {
		o := make([]float64, p.m)
		for j, nu := range row {
			o[j] = math.Sqrt(float64(nu))
		}
		out[i] = o
	}
	return out
}

// MaxNu returns the largest dose-operation count in the plan — the
// worst-case region variability in units of σ_T².
func (p *Plan) MaxNu() int {
	max := 0
	for _, row := range p.nu {
		for _, nu := range row {
			if nu > max {
				max = nu
			}
		}
	}
	return max
}
