package mspt

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nwdec/internal/code"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

func TestNewPlanValidation(t *testing.T) {
	ok := []code.Word{code.FromDigits(0, 1)}
	if _, err := NewPlan(ok, 1, []int64{1}); err == nil {
		t.Error("base 1 accepted")
	}
	if _, err := NewPlan(ok, 2, []int64{1}); err == nil {
		t.Error("short dose table accepted")
	}
	if _, err := NewPlan(ok, 2, []int64{2, 1}); err == nil {
		t.Error("non-increasing doses accepted")
	}
	if _, err := NewPlan(ok, 2, []int64{0, 1}); err == nil {
		t.Error("non-positive dose accepted")
	}
	if _, err := NewPlan(nil, 2, []int64{1, 2}); err == nil {
		t.Error("empty pattern accepted")
	}
	ragged := []code.Word{code.FromDigits(0, 1), code.FromDigits(0)}
	if _, err := NewPlan(ragged, 2, []int64{1, 2}); err == nil {
		t.Error("ragged pattern accepted")
	}
	bad := []code.Word{code.FromDigits(0, 7)}
	if _, err := NewPlan(bad, 2, []int64{1, 2}); err == nil {
		t.Error("digit outside base accepted")
	}
}

func TestPlanAccessorsReturnCopies(t *testing.T) {
	p := mustPlan(t, paperTreePattern())
	d := p.D()
	d[0][0] = 999
	if p.D()[0][0] == 999 {
		t.Error("D leaked internal storage")
	}
	s := p.S()
	s[0][0] = 999
	if p.S()[0][0] == 999 {
		t.Error("S leaked internal storage")
	}
	nu := p.Nu()
	nu[0][0] = 999
	if p.Nu()[0][0] == 999 {
		t.Error("Nu leaked internal storage")
	}
	pat := p.Pattern()
	pat[0][0] = 2
	if p.Pattern()[0][0] == 2 {
		t.Error("Pattern leaked internal storage")
	}
	doses := p.Doses()
	doses[0] = 42
	if p.Doses()[0] == 42 {
		t.Error("Doses leaked internal storage")
	}
	if p.Base() != 3 || p.N() != 3 || p.M() != 4 {
		t.Errorf("identity wrong: %d %d %d", p.Base(), p.N(), p.M())
	}
}

func TestCumulativeDopingIdentity(t *testing.T) {
	// Proposition 2: D[i][j] = sum of S[k][j] for k >= i.
	p := mustPlan(t, paperTreePattern())
	d := p.D()
	s := p.S()
	for j := 0; j < p.M(); j++ {
		var acc int64
		for i := p.N() - 1; i >= 0; i-- {
			acc += s[i][j]
			if d[i][j] != acc {
				t.Errorf("D[%d][%d] = %d, cumulative sum %d", i, j, d[i][j], acc)
			}
			acc = d[i][j]
		}
	}
}

func TestCumulativeDopingProperty(t *testing.T) {
	// For random binary patterns the cumulative identity and ν bounds hold.
	f := func(raw []uint8, seed uint64) bool {
		if len(raw) < 4 {
			return true
		}
		const m = 4
		n := len(raw) / m
		if n > 12 {
			n = 12
		}
		pattern := make([]code.Word, n)
		for i := range pattern {
			w := make(code.Word, m)
			for j := range w {
				w[j] = int(raw[i*m+j]) % 2
			}
			pattern[i] = w
		}
		p, err := NewPlan(pattern, 2, []int64{3, 8})
		if err != nil {
			return false
		}
		// Flow replay must agree with analytic matrices.
		if err := p.Verify(); err != nil {
			return false
		}
		// ν bounds: 1 <= ν[i][j] <= N - i, non-increasing in i.
		nu := p.Nu()
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				if nu[i][j] < 1 || nu[i][j] > n-i {
					return false
				}
				if i+1 < n && nu[i][j] < nu[i+1][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLastRowAllDosedOnce(t *testing.T) {
	// The last nanowire receives exactly one dose per region: its own step.
	p := mustPlan(t, paperGrayPattern())
	nu := p.Nu()
	for j, v := range nu[p.N()-1] {
		if v != 1 {
			t.Errorf("ν[last][%d] = %d, want 1", j, v)
		}
	}
}

func TestBinaryReflectedPhiIsTwoN(t *testing.T) {
	// Fig. 5: Φ is constant for all binary (reflected) codes and equals
	// twice the number of nanowires in a half cave.
	for _, newGen := range []func() (code.Generator, error){
		func() (code.Generator, error) { return code.NewTree(2, 10) },
		func() (code.Generator, error) { return code.NewGray(2, 10) },
		func() (code.Generator, error) { return code.NewBalancedGray(2, 10) },
	} {
		g, err := newGen()
		if err != nil {
			t.Fatal(err)
		}
		words, err := g.Sequence(10)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(words, 2, []int64{2, 9})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Phi(); got != 20 {
			t.Errorf("%s: Φ = %d, want 2N = 20", g.Type(), got)
		}
	}
}

func TestGrayPhiAdvantageTernary(t *testing.T) {
	// Fig. 5: for ternary logic the tree code pays a fabrication overhead
	// that the Gray arrangement cancels.
	const n = 10
	q, err := physics.NewQuantizer(physics.DefaultPhysicalModel(), 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := code.NewTree(3, 6)
	gc, _ := code.NewGray(3, 6)
	pt, err := NewPlanFromGenerator(tc, n, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPlanFromGenerator(gc, n, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Phi() >= pt.Phi() {
		t.Errorf("ternary Gray Φ = %d not better than tree Φ = %d", pg.Phi(), pt.Phi())
	}
}

func TestDoseLevels(t *testing.T) {
	q := physics.PaperExampleQuantizer()
	doses, err := DoseLevels(q, 1e18)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 4, 9}
	for i := range want {
		if doses[i] != want[i] {
			t.Errorf("dose[%d] = %d, want %d", i, doses[i], want[i])
		}
	}
	// Default unit.
	doses, err = DoseLevels(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if doses[0] != 200 || doses[2] != 900 {
		t.Errorf("default-unit doses = %v", doses)
	}
	// Too-coarse unit collapses levels.
	if _, err := DoseLevels(q, 1e19); err == nil {
		t.Error("coarse unit accepted")
	}
}

func TestNewPlanFromGeneratorCyclic(t *testing.T) {
	// Requesting more nanowires than the space holds wraps the arrangement.
	q, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	g, _ := code.NewTree(2, 4) // 4 words
	p, err := NewPlanFromGenerator(g, 10, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 10 {
		t.Fatalf("N = %d", p.N())
	}
	pat := p.Pattern()
	if !pat[0].Equal(pat[4]) {
		t.Error("cyclic assignment expected word 4 == word 0")
	}
}

func TestNewPlanFromGeneratorBaseMismatch(t *testing.T) {
	q, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	g, _ := code.NewTree(3, 4)
	if _, err := NewPlanFromGenerator(g, 3, q, 0); err == nil {
		t.Error("base mismatch accepted")
	}
}

func TestSampleVTStatistics(t *testing.T) {
	// Monte-Carlo threshold samples must match the analytic Σ: the sample
	// std of region (i,j) approaches σ_T·sqrt(ν[i][j]).
	p := mustPlan(t, paperTreePattern())
	q := physics.PaperExampleQuantizer()
	const sigmaT = 0.05
	const trials = 4000
	rng := stats.NewRNG(1234)
	sums := make([][]float64, p.N())
	sqs := make([][]float64, p.N())
	for i := range sums {
		sums[i] = make([]float64, p.M())
		sqs[i] = make([]float64, p.M())
	}
	for tr := 0; tr < trials; tr++ {
		vt := p.SampleVT(rng, sigmaT, q.VTOf)
		for i := range vt {
			for j, v := range vt[i] {
				sums[i][j] += v
				sqs[i][j] += v * v
			}
		}
	}
	nu := p.Nu()
	for i := 0; i < p.N(); i++ {
		for j := 0; j < p.M(); j++ {
			mean := sums[i][j] / trials
			std := math.Sqrt(sqs[i][j]/trials - mean*mean)
			wantMean := q.VTOf(p.Pattern()[i][j])
			wantStd := sigmaT * math.Sqrt(float64(nu[i][j]))
			if math.Abs(mean-wantMean) > 0.01 {
				t.Errorf("region (%d,%d): mean %g, want %g", i, j, mean, wantMean)
			}
			if math.Abs(std-wantStd)/wantStd > 0.1 {
				t.Errorf("region (%d,%d): std %g, want %g", i, j, std, wantStd)
			}
		}
	}
}

func TestSigmaHelpers(t *testing.T) {
	p := mustPlan(t, paperTreePattern())
	const sigmaT = 0.05
	sig := p.Sigma(sigmaT)
	nu := p.Nu()
	for i := range sig {
		for j := range sig[i] {
			want := sigmaT * sigmaT * float64(nu[i][j])
			if math.Abs(sig[i][j]-want) > 1e-15 {
				t.Errorf("Σ[%d][%d] = %g, want %g", i, j, sig[i][j], want)
			}
		}
	}
	root := p.SigmaRootNormalized()
	if math.Abs(root[0][1]-math.Sqrt(3)) > 1e-12 {
		t.Errorf("normalized root = %g, want sqrt(3)", root[0][1])
	}
	if p.MaxNu() != 3 {
		t.Errorf("MaxNu = %d, want 3", p.MaxNu())
	}
	if got := p.AvgVariability(1); math.Abs(got-22.0/12.0) > 1e-12 {
		t.Errorf("AvgVariability = %g", got)
	}
}

func TestFlowEventLog(t *testing.T) {
	p := mustPlan(t, paperGrayPattern())
	res := p.Run()
	spacers, doses := 0, 0
	for _, e := range res.Events {
		switch e.Kind {
		case EventSpacer:
			spacers++
		case EventLithoDose:
			doses++
			if len(e.Regions) == 0 {
				t.Error("dose event with no regions")
			}
		}
		if e.String() == "" {
			t.Error("empty event string")
		}
	}
	if spacers != p.N() {
		t.Errorf("%d spacer events, want %d", spacers, p.N())
	}
	if doses != p.Phi() {
		t.Errorf("%d dose events, want Φ = %d", doses, p.Phi())
	}
}

func TestDistinctNonZero(t *testing.T) {
	cases := []struct {
		row, want []int64
	}{
		{[]int64{0, -5, 0, 2, -5, 2, 7}, []int64{-5, 2, 7}},
		{[]int64{3, 3, 3, 1, 1}, []int64{1, 3}},
		{[]int64{-1, -7, 0, -7, -1, -3}, []int64{-7, -3, -1}},
		{[]int64{0, 0, 0}, nil},
		{nil, nil},
	}
	// One scratch slice serves every row, as in Run, Masks and the
	// correlated sampler.
	buf := make([]int64, 0, 7)
	for _, c := range cases {
		if got := distinctNonZero(buf, c.row); !slices.Equal(got, c.want) {
			t.Errorf("distinctNonZero(%v) = %v, want %v", c.row, got, c.want)
		}
	}
	row := cases[0].row
	if allocs := testing.AllocsPerRun(100, func() { buf = distinctNonZero(buf, row) }); allocs != 0 {
		t.Errorf("distinctNonZero allocates %v times per row", allocs)
	}
}
