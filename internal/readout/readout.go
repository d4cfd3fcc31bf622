// Package readout models the analog sensing path of the nanowire decoder
// (after Ben Jamaa et al., TCAD'08, the paper's reference [2]): every doping
// region under a mesowire is a MOSFET in series along the nanowire, and a
// nanowire is read by comparing its source current against the leakage of
// the unselected wires sharing the contact group. Addressability becomes an
// on/off current-ratio criterion instead of the digital conduct-or-block test —
// the physical quantity behind the "small range" margin of Sec. 6.1.
package readout

import (
	"fmt"
	"math"
)

// Transistor is a simple long-channel decoder-transistor model: linear
// (triode-like) conduction above threshold and exponential subthreshold
// leakage below it.
type Transistor struct {
	// GOn is the channel conductance per volt of overdrive, in siemens
	// per volt.
	GOn float64
	// SubthresholdSlope is the gate swing per decade of leakage, in volts
	// (typically 0.08-0.1 V/dec for a poly-Si nanowire FET).
	SubthresholdSlope float64
	// GLeakFloor is the conductance floor far below threshold, in siemens.
	GLeakFloor float64
}

// DefaultTransistor returns a poly-Si nanowire FET model: 10 µS/V overdrive
// conductance, 80 mV/dec subthreshold slope, 1 pS leakage floor.
func DefaultTransistor() Transistor {
	return Transistor{
		GOn:               10e-6,
		SubthresholdSlope: 0.08,
		GLeakFloor:        1e-12,
	}
}

// Validate reports whether the model is physical.
func (t Transistor) Validate() error {
	if t.GOn <= 0 || t.SubthresholdSlope <= 0 || t.GLeakFloor <= 0 {
		return fmt.Errorf("readout: non-positive transistor parameter %+v", t)
	}
	if t.GLeakFloor >= t.GOn {
		return fmt.Errorf("readout: leakage floor %g not below on-conductance %g", t.GLeakFloor, t.GOn)
	}
	return nil
}

// Conductance returns the channel conductance at gate voltage vg for a
// device with threshold vt. Above threshold it grows linearly with the
// overdrive; below it decays exponentially until the floor.
func (t Transistor) Conductance(vg, vt float64) float64 {
	over := vg - vt
	if over >= 0 {
		g := t.GOn * over
		// The channel never conducts worse than its own weak-inversion
		// current at zero overdrive.
		if g < t.GOn*t.SubthresholdSlope {
			g = t.GOn * t.SubthresholdSlope
		}
		return g
	}
	// 10^x as e^(x·ln 10): the same decade law up to rounding (within
	// 1e-13 relative), at a fraction of math.Pow's cost, which dominated
	// the readout study's trial loop.
	g := t.GOn * t.SubthresholdSlope * math.Exp(over/t.SubthresholdSlope*math.Ln10)
	if g < t.GLeakFloor {
		g = t.GLeakFloor
	}
	return g
}

// WireConductance returns the end-to-end conductance of a nanowire whose M
// decoder transistors (thresholds vt) are driven by the mesowire voltages
// va: series devices combine harmonically (1/G = Σ 1/G_j).
func (t Transistor) WireConductance(vt, va []float64) float64 {
	if len(vt) != len(va) {
		panic(fmt.Sprintf("readout: %d thresholds vs %d gate voltages", len(vt), len(va)))
	}
	inv := 0.0
	for j := range vt {
		inv += 1 / t.Conductance(va[j], vt[j])
	}
	if inv == 0 {
		return math.Inf(1)
	}
	return 1 / inv
}

// GroupReadout is the sensing result of addressing one wire in a contact
// group.
type GroupReadout struct {
	// Target is the index of the addressed wire within the group slice.
	Target int
	// OnCurrentRatio is the target wire's conductance divided by the sum
	// of all other wires' conductances — the sense amplifier sees the
	// parallel leakage of every unselected wire in the group.
	OnCurrentRatio float64
	// WorstOffRatio is the target conductance divided by the single
	// strongest leaker.
	WorstOffRatio float64
}

// ReadGroup evaluates the readout of addressing wire target within a group:
// vts holds each wire's sampled thresholds; va is the applied address.
func (t Transistor) ReadGroup(vts [][]float64, va []float64, target int) (GroupReadout, error) {
	if target < 0 || target >= len(vts) {
		return GroupReadout{}, fmt.Errorf("readout: target %d outside group of %d wires", target, len(vts))
	}
	on := t.WireConductance(vts[target], va)
	var leakSum, worst float64
	for k, vt := range vts {
		if k == target {
			continue
		}
		g := t.WireConductance(vt, va)
		leakSum += g
		if g > worst {
			worst = g
		}
	}
	out := GroupReadout{Target: target}
	if leakSum == 0 {
		out.OnCurrentRatio = math.Inf(1)
		out.WorstOffRatio = math.Inf(1)
		return out, nil
	}
	out.OnCurrentRatio = on / leakSum
	out.WorstOffRatio = on / worst
	return out, nil
}
