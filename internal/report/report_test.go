package report

import (
	"context"
	"strings"
	"testing"
)

func TestGenerateFullReport(t *testing.T) {
	opt := DefaultOptions()
	opt.MCTrials = 1
	doc, err := Generate(context.Background(), opt)
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

func TestGenerateWithoutAblations(t *testing.T) {
	opt := DefaultOptions()
	opt.IncludeAblations = false
	opt.Title = "short"
	doc, err := Generate(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc, "## Ablations") {
		t.Error("ablations included despite option")
	}
	if !strings.HasPrefix(doc, "# short\n") {
		t.Error("custom title missing")
	}
}
