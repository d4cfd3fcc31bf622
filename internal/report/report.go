// Package report renders the complete reproduction record — every figure of
// the paper plus the ablations — as a single Markdown document with
// paper-vs-measured commentary. The sections are assembled from the same
// structured datasets the CLIs serialize, so the documentation can never
// drift from the experiment results.
package report

import (
	"context"
	"fmt"
	"strings"

	"nwdec/internal/dataset"
	"nwdec/internal/engine"
)

// sections maps document headings to the registry experiments that fill
// them, in presentation order. An entry without an experiment is a bare
// heading.
var sections = []struct {
	heading    string
	experiment string
}{
	{"# MSPT nanowire decoder — reproduction report", ""},
	{"## Fig. 5 — fabrication complexity", "fig5"},
	{"## Fig. 6 — decoder variability", "fig6"},
	{"## Fig. 7 — crossbar yield vs code length", "fig7"},
	{"## Fig. 8 — effective bit area", "fig8"},
	{"## Headline claims", "headline"},
	{"## Ablations and extensions", ""},
	{"### Arrangement (Propositions 4-5)", "arrangement"},
	{"### Threshold-model invariance", "model"},
	{"### Multi-valued decoders", "multivalued"},
	{"### Mask-set economics", "masks"},
	{"### Thermal robustness (300 K design)", "temperature"},
	{"### Cave-depth scaling (BGC, M=10)", "scaling"},
	{"### Monte-Carlo validation", "montecarlo"},
}

// Generate sends one experiment request per section through b and
// assembles the Markdown document from the resulting datasets. base
// carries the parameters every section shares (Config, Seed, Trials,
// Workers); Generate sets its Kind and Experiment. An engine facade as b
// validates each request exactly as for a single experiment, so a
// malformed base fails with an Invalid-class error. Cancelling ctx aborts
// generation with ctx's error.
func Generate(ctx context.Context, b engine.Backend, base engine.Request) (string, error) {
	req := base
	req.Kind = engine.KindExperiment
	var sb strings.Builder
	for _, sec := range sections {
		if sec.experiment == "" {
			sb.WriteString(sec.heading + "\n\n")
			continue
		}
		req.Experiment = sec.experiment
		resp, err := b.Handle(ctx, req)
		if err != nil {
			return "", fmt.Errorf("report: %s: %w", sec.experiment, err)
		}
		writeSection(&sb, sec.heading, resp.Dataset)
	}
	return sb.String(), nil
}

// writeSection embeds one dataset under a caller-supplied heading: the pipe
// table, then the notes as a paragraph.
func writeSection(sb *strings.Builder, heading string, ds *dataset.Dataset) {
	sb.WriteString(heading + "\n\n")
	sb.WriteString(ds.MarkdownTable())
	if len(ds.Notes) > 0 {
		sb.WriteString("\n")
		for _, n := range ds.Notes {
			sb.WriteString(n + "\n")
		}
	}
	sb.WriteString("\n")
}
