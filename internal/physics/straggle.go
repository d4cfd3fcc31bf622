package physics

import (
	"fmt"
	"math"
)

// StraggleModel derives the per-dose threshold-voltage deviation σ_T from
// first principles instead of assuming the paper's 50 mV: random dopant
// fluctuation in a nanowire region of volume V makes the implanted dopant
// count Poisson-distributed, so the doping concentration carries a relative
// deviation 1/sqrt(N_D·V), which propagates to the threshold through the
// local slope dV_T/dN_D of the threshold law.
//
// This closes the loop between the geometry (region volume) and the yield
// model: thinner nanowires or shorter doping regions raise σ_T and lower
// yield, exactly the scaling pressure the paper's introduction describes.
type StraggleModel struct {
	// Model is the threshold law to differentiate.
	Model VTModel
	// RegionLength is the doping-region length along the wire in cm
	// (the mesowire pitch, 32 nm).
	RegionLength float64
	// WireWidth is the nanowire width in cm (the spacer thickness,
	// ~10 nm).
	WireWidth float64
	// WireHeight is the spacer height in cm (~300 nm as fabricated, less
	// after planarization).
	WireHeight float64
}

// DefaultStraggleModel returns the paper's geometry: 32 nm regions on
// 10 nm x 60 nm wires (the as-fabricated 300 nm spacers planarized down to
// a depletion-active 60 nm), on the default physical threshold law.
func DefaultStraggleModel() *StraggleModel {
	return &StraggleModel{
		Model:        DefaultPhysicalModel(),
		RegionLength: 32e-7,
		WireWidth:    10e-7,
		WireHeight:   60e-7,
	}
}

// Validate reports whether the geometry is meaningful.
func (s *StraggleModel) Validate() error {
	if s.Model == nil {
		return fmt.Errorf("physics: straggle model needs a threshold law")
	}
	if s.RegionLength <= 0 || s.WireWidth <= 0 || s.WireHeight <= 0 {
		return fmt.Errorf("physics: non-positive straggle geometry %+v", s)
	}
	return nil
}

// RegionVolume returns the doping-region volume in cm³.
func (s *StraggleModel) RegionVolume() float64 {
	return s.RegionLength * s.WireWidth * s.WireHeight
}

// SigmaT returns the threshold-voltage standard deviation of a single dose
// that sets the region to concentration nd:
//
//	σ_T = dV_T/dN_D · σ_N,  σ_N = sqrt(N_D / V)
//
// (Poisson count fluctuation translated back into a concentration).
func (s *StraggleModel) SigmaT(nd float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	nd = clampDoping(nd)
	// Central finite difference of the threshold law.
	h := nd * 1e-4
	slope := (s.Model.VT(nd+h) - s.Model.VT(nd-h)) / (2 * h)
	sigmaN := math.Sqrt(nd / s.RegionVolume())
	return slope * sigmaN, nil
}

// WorstCaseSigmaT returns the largest per-dose σ_T across the quantizer's
// doping levels — the value a conservative yield analysis should use.
func (s *StraggleModel) WorstCaseSigmaT(q *Quantizer) (float64, error) {
	worst := 0.0
	for _, nd := range q.DopingLevels() {
		sig, err := s.SigmaT(nd)
		if err != nil {
			return 0, err
		}
		if sig > worst {
			worst = sig
		}
	}
	return worst, nil
}
