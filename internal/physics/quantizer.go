package physics

import "fmt"

// Quantizer realizes the discrete ordering g of Proposition 1: it places the
// n logic values of a multi-valued addressing scheme onto equally spaced
// threshold-voltage levels inside a supply window, and — through a VTModel —
// onto the doping concentrations that produce those thresholds.
//
// With window [VMin, VMax] and spacing s = (VMax-VMin)/n, digit k sits at
// VMin + (k+0.5)·s, so every level owns a guard band of ±s/2 (the Margin):
// a region still decodes correctly as long as its actual threshold stays
// within its band. For n = 3 over [0, 0.6] V this yields exactly the
// 0.1/0.3/0.5 V levels of the paper's Example 1.
type Quantizer struct {
	model      VTModel
	n          int
	vmin, vmax float64
	vts        []float64
	dopings    []float64
}

// NewQuantizer builds a quantizer for n >= 2 logic levels over the voltage
// window [vmin, vmax].
func NewQuantizer(model VTModel, n int, vmin, vmax float64) (*Quantizer, error) {
	if model == nil {
		return nil, fmt.Errorf("physics: nil VTModel")
	}
	if n < 2 {
		return nil, fmt.Errorf("physics: need at least 2 logic levels, got %d", n)
	}
	if !(vmax > vmin) {
		return nil, fmt.Errorf("physics: invalid voltage window [%g, %g]", vmin, vmax)
	}
	q := &Quantizer{
		model:   model,
		n:       n,
		vmin:    vmin,
		vmax:    vmax,
		vts:     make([]float64, n),
		dopings: make([]float64, n),
	}
	s := (vmax - vmin) / float64(n)
	for k := 0; k < n; k++ {
		q.vts[k] = vmin + (float64(k)+0.5)*s
		q.dopings[k] = model.Doping(q.vts[k])
	}
	return q, nil
}

// N returns the number of logic levels.
func (q *Quantizer) N() int { return q.n }

// Window returns the voltage window the levels are placed in.
func (q *Quantizer) Window() (vmin, vmax float64) { return q.vmin, q.vmax }

// Margin returns half the level spacing — the maximum threshold-voltage
// excursion a region tolerates before it decodes as a neighbouring digit.
func (q *Quantizer) Margin() float64 {
	return (q.vmax - q.vmin) / (2 * float64(q.n))
}

// VTOf returns the nominal threshold voltage of a digit.
// It panics for a digit outside [0, n).
func (q *Quantizer) VTOf(digit int) float64 {
	q.check(digit)
	return q.vts[digit]
}

// DopingLevels returns a copy of all doping levels, ascending.
func (q *Quantizer) DopingLevels() []float64 {
	return append([]float64(nil), q.dopings...)
}

func (q *Quantizer) check(digit int) {
	if digit < 0 || digit >= q.n {
		panic(fmt.Sprintf("physics: digit %d out of range [0,%d)", digit, q.n))
	}
}

// PaperExampleQuantizer returns the exact quantizer of the paper's worked
// Example 1: ternary logic, levels 0.1/0.3/0.5 V, dopings 2/4/9 x 10^18.
func PaperExampleQuantizer() *Quantizer {
	q, err := NewQuantizer(PaperExampleTable(), 3, 0, 0.6)
	if err != nil {
		panic("physics: paper example quantizer must be valid: " + err.Error())
	}
	return q
}
