package report

import (
	"context"
	"strings"
	"testing"

	"nwdec/internal/engine"
	"nwdec/internal/experiments"
)

func TestGenerateFullReport(t *testing.T) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Generate(context.Background(), eng, engine.Request{Seed: experiments.DefaultSeed, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"# MSPT nanowire decoder — reproduction report",
		"## Fig. 5 — fabrication complexity",
		"## Fig. 6 — decoder variability",
		"## Fig. 7 — crossbar yield vs code length",
		"## Fig. 8 — effective bit area",
		"## Headline claims",
		"## Ablations and extensions",
		"### Arrangement (Propositions 4-5)",
		"### Threshold-model invariance",
		"### Multi-valued decoders",
		"### Monte-Carlo validation",
		"### Mask-set economics",
		"### Thermal robustness (300 K design)",
		"### Cave-depth scaling (BGC, M=10)",
		"| ternary |",
		"paper: 17%",
		"identical under the physical and the table-calibrated",
	}
	for _, want := range wants {
		if !strings.Contains(doc, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(doc, "✘") {
		t.Error("report contains failed headline claims")
	}
}
