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

	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/experiments"
)

// Options configures report generation.
type Options struct {
	// Cfg is the platform configuration shared by all experiments.
	Cfg core.Config
	// Title heads the document.
	Title string
	// IncludeAblations adds the reproduction-only sections.
	IncludeAblations bool
	// MCTrials and Seed drive the Monte-Carlo validation section.
	MCTrials int
	Seed     uint64
	// Workers bounds the worker pool of the underlying experiments
	// (0 = GOMAXPROCS). The document is bit-identical at every worker count.
	Workers int
}

// DefaultOptions returns the standard full report configuration.
func DefaultOptions() Options {
	return Options{
		Title:            "MSPT nanowire decoder — reproduction report",
		IncludeAblations: true,
		MCTrials:         experiments.DefaultMCTrials,
		Seed:             experiments.DefaultSeed,
	}
}

// sections maps document headings to the registry experiments that fill
// them, in presentation order. The ablation subsections are only included
// when Options.IncludeAblations is set.
var sections = []struct {
	heading    string
	experiment string
	ablation   bool
}{
	{"## Fig. 5 — fabrication complexity", "fig5", false},
	{"## Fig. 6 — decoder variability", "fig6", false},
	{"## Fig. 7 — crossbar yield vs code length", "fig7", false},
	{"## Fig. 8 — effective bit area", "fig8", false},
	{"## Headline claims", "headline", false},
	{"### Arrangement (Propositions 4-5)", "arrangement", true},
	{"### Threshold-model invariance", "model", true},
	{"### Multi-valued decoders", "multivalued", true},
	{"### Mask-set economics", "masks", true},
	{"### Thermal robustness (300 K design)", "temperature", true},
	{"### Cave-depth scaling (BGC, M=10)", "scaling", true},
	{"### Monte-Carlo validation", "montecarlo", true},
}

// Generate runs every experiment and assembles the Markdown document from
// the resulting datasets. Cancelling ctx aborts generation with ctx's error.
func Generate(ctx context.Context, opt Options) (string, error) {
	r := &experiments.Runner{
		Cfg:      opt.Cfg,
		MCTrials: opt.MCTrials,
		Seed:     opt.Seed,
		Workers:  opt.Workers,
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n\n", opt.Title)
	wroteAblationHeader := false
	for _, sec := range sections {
		if sec.ablation {
			if !opt.IncludeAblations {
				continue
			}
			if !wroteAblationHeader {
				sb.WriteString("## Ablations and extensions\n\n")
				wroteAblationHeader = true
			}
		}
		ds, err := r.Run(ctx, sec.experiment)
		if err != nil {
			return "", fmt.Errorf("report: %s: %w", sec.experiment, err)
		}
		writeSection(&sb, sec.heading, ds)
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
