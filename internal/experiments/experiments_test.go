package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
)

func TestFig5ReproducesPaperShape(t *testing.T) {
	rows, err := Fig5(Fig5N)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 logic rows, got %d", len(rows))
	}
	binary := rows[0]
	if binary.PhiTC != 2*Fig5N || binary.PhiGC != 2*Fig5N {
		t.Errorf("binary Φ must be 2N for both codes, got TC %d GC %d", binary.PhiTC, binary.PhiGC)
	}
	for _, r := range rows[1:] {
		if r.PhiTC <= 2*Fig5N {
			t.Errorf("%s: tree code should pay a multi-valued overhead, Φ = %d", r.Logic, r.PhiTC)
		}
		if r.PhiGC >= r.PhiTC {
			t.Errorf("%s: Gray Φ %d not below tree Φ %d", r.Logic, r.PhiGC, r.PhiTC)
		}
		if r.PhiGC > 2*Fig5N+2 {
			t.Errorf("%s: Gray should nearly cancel the overhead, Φ = %d", r.Logic, r.PhiGC)
		}
	}
	saving := Fig5GraySaving(rows)
	if saving < 0.10 || saving > 0.30 {
		t.Errorf("GC saving %.0f%% far from the paper's 17%%", 100*saving)
	}
}

func TestFig5Validation(t *testing.T) {
	if _, err := Fig5(0); err == nil {
		t.Error("N=0 accepted")
	}
}

func TestMinReflectedLength(t *testing.T) {
	cases := []struct{ base, n, want int }{
		{2, 10, 8}, {3, 10, 6}, {4, 10, 4}, {2, 2, 2}, {2, 3, 4},
	}
	for _, c := range cases {
		if got := minReflectedLength(c.base, c.n); got != c.want {
			t.Errorf("minReflectedLength(%d, %d) = %d, want %d", c.base, c.n, got, c.want)
		}
	}
}

func TestRenderFig5(t *testing.T) {
	rows, _ := Fig5(Fig5N)
	out := Fig5Dataset(rows).Text()
	for _, want := range []string{"Fig. 5", "ternary", "paper: 17%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in render", want)
		}
	}
}

func TestFig6SurfacesShape(t *testing.T) {
	surfaces, err := Fig6Workers(context.Background(), Fig6N, []int{8, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(surfaces) != 6 { // 3 code types x 2 lengths
		t.Fatalf("want 6 surfaces, got %d", len(surfaces))
	}
	byKey := make(map[string]Fig6Surface)
	for _, s := range surfaces {
		byKey[s.Type.String()+"-"+itoa(s.Length)] = s
		if len(s.Root) != Fig6N || len(s.Root[0]) != s.Length {
			t.Fatalf("%v L=%d: surface is %dx%d", s.Type, s.Length, len(s.Root), len(s.Root[0]))
		}
	}
	// The paper's orderings: GC and BGC below TC at every length; BGC has
	// the flattest (smallest max) distribution; longer codes reduce the
	// average variability for every type.
	for _, m := range []string{"8", "10"} {
		tc, gc, bgc := byKey["TC-"+m], byKey["GC-"+m], byKey["BGC-"+m]
		if gc.AvgVariability >= tc.AvgVariability {
			t.Errorf("L=%s: GC avg %g not below TC %g", m, gc.AvgVariability, tc.AvgVariability)
		}
		if bgc.MaxNu > gc.MaxNu {
			t.Errorf("L=%s: BGC max ν %d above GC %d", m, bgc.MaxNu, gc.MaxNu)
		}
	}
	for _, tp := range []string{"TC", "GC", "BGC"} {
		if byKey[tp+"-10"].AvgVariability >= byKey[tp+"-8"].AvgVariability {
			t.Errorf("%s: longer code did not reduce average variability", tp)
		}
	}
	saving := Fig6VariabilitySaving(surfaces)
	if saving <= 0.05 {
		t.Errorf("variability saving %.0f%% lost the paper's direction", 100*saving)
	}
}

func TestRenderFig6(t *testing.T) {
	surfaces, _ := Fig6Workers(context.Background(), Fig6N, []int{8}, 0)
	out := Fig6Dataset(surfaces).Text()
	for _, want := range []string{"Fig. 6", "TC (L=8)", "BGC (L=8)", "paper: 18%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig7PaperShape(t *testing.T) {
	points, err := Fig7Workers(context.Background(), core.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 { // TC/BGC x 3 + HC/AHC x 3
		t.Fatalf("want 12 points, got %d", len(points))
	}
	// Yield grows with code length for every family on the grid.
	for _, tp := range []code.Type{code.TypeTree, code.TypeBalancedGray} {
		prev := 0.0
		for _, m := range TreeFamilyLengths {
			p := find(points, tp, m)
			if p == nil {
				t.Fatalf("missing %v M=%d", tp, m)
			}
			if p.Yield < prev {
				t.Errorf("%v: yield dropped at M=%d", tp, m)
			}
			prev = p.Yield
		}
	}
	// Optimized codes beat their plain versions at every common length.
	for _, m := range TreeFamilyLengths {
		if find(points, code.TypeBalancedGray, m).Yield <= find(points, code.TypeTree, m).Yield {
			t.Errorf("BGC not above TC at M=%d", m)
		}
	}
	for _, m := range HotFamilyLengths {
		if find(points, code.TypeArrangedHot, m).Yield <= find(points, code.TypeHot, m).Yield {
			t.Errorf("AHC not above HC at M=%d", m)
		}
	}
	// All yields inside the plausible band of Fig. 7.
	for _, p := range points {
		if p.Yield < 0.2 || p.Yield > 0.99 {
			t.Errorf("%v M=%d: yield %.2f outside plausible band", p.Type, p.Length, p.Yield)
		}
	}
}

func TestRenderFig7(t *testing.T) {
	points, _ := Fig7Workers(context.Background(), core.Config{}, 0)
	out := Fig7Dataset(points).Text()
	for _, want := range []string{"Fig. 7", "BGC vs TC at M=8", "paper: +42%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig8PaperShape(t *testing.T) {
	points, err := Fig8Workers(context.Background(), core.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 15 { // 3 tree families x 3 + 2 hot families x 3
		t.Fatalf("want 15 points, got %d", len(points))
	}
	// Tree-family area decreases monotonically to M=10 (the paper's 51%
	// saving channel).
	for _, tp := range []code.Type{code.TypeTree, code.TypeGray, code.TypeBalancedGray} {
		if find(points, tp, 10).BitArea >= find(points, tp, 6).BitArea {
			t.Errorf("%v: bit area did not shrink from M=6 to M=10", tp)
		}
	}
	// Hot family: best at M=6, slightly worse beyond (paper's Fig. 8).
	for _, tp := range []code.Type{code.TypeHot, code.TypeArrangedHot} {
		if find(points, tp, 6).BitArea >= find(points, tp, 4).BitArea {
			t.Errorf("%v: M=6 not better than M=4", tp)
		}
		if find(points, tp, 8).BitArea < find(points, tp, 6).BitArea {
			t.Errorf("%v: area kept shrinking beyond M=6", tp)
		}
	}
	// Ordering BGC <= GC <= TC at every tree length.
	for _, m := range TreeFamilyLengths {
		tc := find(points, code.TypeTree, m).BitArea
		gc := find(points, code.TypeGray, m).BitArea
		bgc := find(points, code.TypeBalancedGray, m).BitArea
		if !(bgc <= gc && gc <= tc) {
			t.Errorf("M=%d: area ordering violated: TC %g GC %g BGC %g", m, tc, gc, bgc)
		}
	}
	// The global winner is an optimized code with a bit area near the
	// paper's 169-175 nm².
	min := Fig8MinBitArea(points)
	if min.Type != code.TypeBalancedGray && min.Type != code.TypeArrangedHot {
		t.Errorf("global minimum won by %v", min.Type)
	}
	if min.BitArea < 120 || min.BitArea > 300 {
		t.Errorf("minimum bit area %g nm² far from the paper's ~170 nm²", min.BitArea)
	}
	families := make(map[code.Type]bool)
	for _, p := range points {
		families[p.Type] = true
	}
	if len(families) != 5 {
		t.Errorf("Fig. 8 covered %d families, want 5", len(families))
	}
}

func TestRenderFig8(t *testing.T) {
	points, _ := Fig8Workers(context.Background(), core.Config{}, 0)
	out := Fig8Dataset(points).Text()
	for _, want := range []string{"Fig. 8", "smallest bit area", "paper: 51%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestHeadlineAllClaimsHold(t *testing.T) {
	claims, err := HeadlineWorkers(context.Background(), core.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 6 {
		t.Fatalf("want 6 claims, got %d", len(claims))
	}
	for _, c := range claims {
		if !c.Holds {
			t.Errorf("claim %q does not hold: paper %s, measured %s", c.Name, c.Paper, c.Measured)
		}
	}
	out := RenderHeadline(claims)
	if !strings.Contains(out, "paper") || !strings.Contains(out, "yes") {
		t.Error("headline render incomplete")
	}
}

func TestMonteCarloTracksAnalytic(t *testing.T) {
	points, err := MonteCarloWorkers(context.Background(), core.Config{}, 2, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("want 3 MC points, got %d", len(points))
	}
	for _, p := range points {
		diff := p.MC - p.Analytic
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.15 {
			t.Errorf("%v M=%d: MC %.2f vs analytic %.2f", p.Type, p.Length, p.MC, p.Analytic)
		}
	}
	out := RenderMonteCarlo(points)
	if !strings.Contains(out, "Monte-Carlo") {
		t.Error("MC render incomplete")
	}
}

func TestRunnerAllNames(t *testing.T) {
	ctx := context.Background()
	r := &Runner{}
	r.MCTrials = 1
	for _, name := range r.Names() {
		ds, err := r.Run(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ds.Text()) == 0 {
			t.Errorf("%s produced empty output", name)
		}
		if ds.Meta.Experiment != name {
			t.Errorf("%s: dataset records experiment %q", name, ds.Meta.Experiment)
		}
		if ds.Meta.ConfigHash == "" {
			t.Errorf("%s: dataset missing config hash", name)
		}
	}
	if _, err := r.Run(ctx, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunnerRegistryComplete pins the registry contract: Names and Run
// derive from the same table, every name is unique, and the mc alias
// resolves to the montecarlo entry.
func TestRunnerRegistryComplete(t *testing.T) {
	r := &Runner{}
	names := r.Names()
	if len(names) != len(registry) {
		t.Fatalf("Names lists %d experiments, registry has %d", len(names), len(registry))
	}
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if name != registry[i].name {
			t.Errorf("Names[%d] = %q, registry[%d] = %q", i, name, i, registry[i].name)
		}
		if seen[name] {
			t.Errorf("duplicate experiment name %q", name)
		}
		seen[name] = true
	}
	for alias, canon := range aliases {
		if seen[alias] {
			t.Errorf("alias %q shadows a registry name", alias)
		}
		if !seen[canon] {
			t.Errorf("alias %q points at unknown experiment %q", alias, canon)
		}
	}
	r.MCTrials = 1
	ds, err := r.Run(context.Background(), "mc")
	if err != nil {
		t.Fatalf("mc alias: %v", err)
	}
	if ds.Meta.Experiment != "montecarlo" {
		t.Errorf("mc alias resolved to %q", ds.Meta.Experiment)
	}
}

// TestZeroValueRunner pins the zero-value contract: &Runner{} works, with
// the documented defaults applied.
func TestZeroValueRunner(t *testing.T) {
	var zero Runner
	eff := zero.effective()
	if eff.MCTrials != DefaultMCTrials {
		t.Errorf("zero MCTrials -> %d, want %d", eff.MCTrials, DefaultMCTrials)
	}
	if eff.Seed != DefaultSeed {
		t.Errorf("zero Seed -> %d, want %d", eff.Seed, DefaultSeed)
	}
	if eff.Workers != 0 {
		t.Errorf("zero Workers -> %d, want 0 (GOMAXPROCS)", eff.Workers)
	}
	if _, err := zero.Run(context.Background(), "fig5"); err != nil {
		t.Fatalf("zero-value Runner: %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

func TestFig6HotCompanion(t *testing.T) {
	surfaces, err := Fig6HotWorkers(context.Background(), Fig6N, []int{6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(surfaces) != 4 {
		t.Fatalf("want 4 surfaces, got %d", len(surfaces))
	}
	byKey := make(map[string]Fig6Surface)
	for _, s := range surfaces {
		byKey[s.Type.String()+"-"+itoa(s.Length)] = s
	}
	// The paper's "similar results" claim: AHC below HC at every length,
	// with a flatter distribution, and longer codes reducing the average.
	for _, m := range []string{"6", "8"} {
		hc, ahc := byKey["HC-"+m], byKey["AHC-"+m]
		if ahc.AvgVariability >= hc.AvgVariability {
			t.Errorf("L=%s: AHC avg %g not below HC %g", m, ahc.AvgVariability, hc.AvgVariability)
		}
		if ahc.MaxNu >= hc.MaxNu {
			t.Errorf("L=%s: AHC max ν %d not below HC %d", m, ahc.MaxNu, hc.MaxNu)
		}
	}
	for _, tp := range []string{"HC", "AHC"} {
		if byKey[tp+"-8"].AvgVariability >= byKey[tp+"-6"].AvgVariability {
			t.Errorf("%s: longer code did not reduce average variability", tp)
		}
	}
	if _, err := Fig6HotWorkers(context.Background(), 0, []int{6}, 0); err == nil {
		t.Error("N=0 accepted")
	}
	out := RenderFig6Hot(surfaces)
	if !strings.Contains(out, "hot-code variability") || !strings.Contains(out, "AHC (L=8)") {
		t.Error("render incomplete")
	}
}

// TestMaxMCTrialsBoundsDerivedCounts pins MaxMCTrials against the
// registry: at that many MC trials every count and substream index an
// experiment derives still fits in an int.
func TestMaxMCTrialsBoundsDerivedCounts(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale int
	}{
		{"noise substreams (two halves)", 2 * noiseTrialScale},
		{"readout substreams (every study)", len(readoutStudies) * readoutTrialScale},
		{"montecarlo units", len(mcDesignPoints)},
	} {
		if MaxMCTrials > math.MaxInt/c.scale {
			t.Errorf("%s: %d × MaxMCTrials overflows an int", c.name, c.scale)
		}
	}
}
