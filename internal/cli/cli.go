// Package cli unifies the shared surface of the nwdec command-line tools:
// the -format, -timeout, -workers, -metrics and -pprof flags, context
// construction, list-flag parsing, structured-output emission and the
// exit-code convention.
//
// Exit codes: 0 on success, 1 on a runtime failure (ExitError), 2 on a
// usage error (ExitUsage — also what the flag package uses for unknown
// flags). Exit derives the code from the error's internal/nwerr class —
// Invalid means usage, Canceled and Internal mean runtime — so commands
// never branch on error strings. Errors always go to stderr, prefixed
// with the command name, so stdout stays clean for piping.
//
// The cli package is also the observability boundary: it is where the
// real monotonic clock is injected into the obs layer (the deterministic
// packages never read wall time themselves) and where the metrics
// snapshot is rendered — to stderr or the -metrics-out file, never
// stdout, so experiment output stays byte-identical with metrics on or
// off.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"nwdec/internal/code"
	"nwdec/internal/dataset"
	"nwdec/internal/geometry"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
)

// Exit codes shared by every command.
const (
	// ExitOK reports success.
	ExitOK = 0
	// ExitError reports a runtime failure.
	ExitError = 1
	// ExitUsage reports a bad flag value or invocation.
	ExitUsage = 2
)

// Common holds the flags every command shares. Register installs them on
// the default flag set; the fields are valid after flag.Parse.
type Common struct {
	// Name prefixes error messages ("nwsim: ...").
	Name string
	// FormatName is the raw -format value; Format resolves it.
	FormatName string
	// Timeout is the -timeout value; Context applies it (0 = none).
	Timeout time.Duration
	// Workers is the -workers value (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// MetricsFormat is the -metrics value: the dataset format the
	// observability snapshot is rendered in on Close ("" = disabled).
	MetricsFormat string
	// MetricsPath is the -metrics-out value: the file the snapshot is
	// written to ("" = stderr).
	MetricsPath string
	// PprofDir is the -pprof value: the directory receiving cpu.pprof,
	// heap.pprof and trace.out ("" = disabled).
	PprofDir string

	reg    *obs.Registry
	prof   *obs.Profile
	closed bool
}

// Register installs the shared -format, -timeout, -workers, -metrics,
// -metrics-out and -pprof flags on the default flag set. defaultFormat is
// the command's native output form ("text" for the simulators, "csv" for
// the sweeper).
func Register(name, defaultFormat string) *Common {
	c := &Common{Name: name}
	flag.StringVar(&c.FormatName, "format", defaultFormat, "output format: "+dataset.Formats())
	flag.DurationVar(&c.Timeout, "timeout", 0, "abort the run after this duration, e.g. 30s (0 = no timeout)")
	flag.IntVar(&c.Workers, "workers", 0, "worker pool size for parallel stages (0 = GOMAXPROCS, 1 = serial)")
	flag.StringVar(&c.MetricsFormat, "metrics", "", "emit an observability metrics snapshot on exit in this format ("+dataset.Formats()+"; empty = off)")
	flag.StringVar(&c.MetricsPath, "metrics-out", "", "write the metrics snapshot to this file instead of stderr")
	flag.StringVar(&c.PprofDir, "pprof", "", "capture cpu.pprof, heap.pprof and trace.out into this directory")
	return c
}

// Format resolves the -format flag; an unknown value is a usage error.
func (c *Common) Format() dataset.Format {
	f, err := dataset.ParseFormat(c.FormatName)
	if err != nil {
		c.Usage(err)
	}
	return f
}

// monotonicClock is the real clock of the obs layer, measured from
// process start. It lives here — at the command boundary — so the
// deterministic packages themselves never read wall time (the nwlint
// determinism rule enforces this).
type monotonicClock struct {
	base time.Time
}

// Now returns the monotonic time elapsed since the clock was created.
func (m monotonicClock) Now() time.Duration { return time.Since(m.base) }

// Context returns the command's root context, honoring -timeout, and
// activates the observability surface: with -metrics set it installs an
// obs.Registry (driven by the real monotonic clock) into the context, and
// with -pprof set it starts CPU/trace capture. The caller must defer
// cancel and defer Close.
func (c *Common) Context() (context.Context, context.CancelFunc) {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), c.Timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	if c.MetricsFormat != "" {
		// Validate the format up front so a typo fails before the run,
		// not after it.
		if _, err := dataset.ParseFormat(c.MetricsFormat); err != nil {
			c.Usage(err)
		}
		c.reg = obs.New(monotonicClock{base: time.Now()})
		ctx = obs.Into(ctx, c.reg)
	}
	if c.PprofDir != "" {
		p, err := obs.StartProfile(c.PprofDir)
		if err != nil {
			c.Fail(err)
		}
		c.prof = p
	}
	return ctx, cancel
}

// Close finalizes the observability surface: it stops any pprof/trace
// capture and renders the metrics snapshot — through the dataset
// renderers, to stderr or the -metrics-out file, never stdout. It is
// idempotent and safe to call with observability disabled; commands defer
// it right after cancel, and Fail invokes it so profiles survive error
// exits.
func (c *Common) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.prof != nil {
		if err := c.prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
		}
		c.prof = nil
	}
	if c.reg == nil {
		return
	}
	f, err := dataset.ParseFormat(c.MetricsFormat)
	if err != nil {
		// Context validated the format already; fall back defensively.
		f = dataset.FormatText
	}
	var w io.Writer = os.Stderr
	if c.MetricsPath != "" {
		file, err := os.Create(c.MetricsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
			return
		}
		defer func() {
			if err := file.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
			}
		}()
		w = file
	}
	if err := c.reg.Snapshot().Render(w, f); err != nil {
		fmt.Fprintf(os.Stderr, "%s: rendering metrics: %v\n", c.Name, err)
	}
}

// Fail reports a runtime error to stderr and exits with ExitError. Any
// active profile capture and metrics snapshot are finalized first.
func (c *Common) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
	c.Close()
	os.Exit(ExitError)
}

// Usage reports a usage error to stderr and exits with ExitUsage.
func (c *Common) Usage(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
	c.Close()
	os.Exit(ExitUsage)
}

// Exit terminates the command according to the error's nwerr class
// instead of the caller deciding between Fail and Usage at every site:
// an Invalid error is a usage problem (ExitUsage), while Canceled and
// Internal are runtime failures (ExitError). A nil error is a no-op, so
// commands can route every error through one call.
func (c *Common) Exit(err error) {
	if err == nil {
		return
	}
	if nwerr.IsInvalid(err) {
		c.Usage(err)
	}
	c.Fail(err)
}

// Emit renders one dataset to stdout in the selected format.
func (c *Common) Emit(ds *dataset.Dataset) {
	if err := ds.Render(os.Stdout, c.Format()); err != nil {
		c.Fail(err)
	}
}

// EmitAll renders a dataset sequence to stdout. Text output frames each
// dataset with a "==== name ====" banner (the historical run-all form);
// JSON emits one array; CSV and Markdown concatenate the per-dataset
// renderings separated by blank lines.
func (c *Common) EmitAll(dss []*dataset.Dataset) {
	if err := RenderAll(os.Stdout, c.Format(), dss); err != nil {
		c.Fail(err)
	}
}

// RenderAll writes a dataset sequence to w in the given format; see
// EmitAll for the per-format framing.
func RenderAll(w io.Writer, f dataset.Format, dss []*dataset.Dataset) error {
	switch f {
	case dataset.FormatText:
		for _, ds := range dss {
			name := ds.Meta.Experiment
			if name == "" {
				name = ds.Name
			}
			if _, err := fmt.Fprintf(w, "==== %s ====\n%s\n", name, ds.Text()); err != nil {
				return err
			}
		}
		return nil
	case dataset.FormatJSON:
		return dataset.WriteJSONArray(w, dss)
	default:
		for i, ds := range dss {
			if i > 0 {
				if _, err := io.WriteString(w, "\n"); err != nil {
					return err
				}
			}
			if err := ds.Render(w, f); err != nil {
				return err
			}
		}
		return nil
	}
}

// Ints parses a comma-separated integer list; empty input is nil.
func Ints(arg string) ([]int, error) {
	if arg == "" {
		return nil, nil
	}
	var out []int
	for _, s := range strings.Split(arg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, nwerr.Invalidf("invalid integer %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// Floats parses a comma-separated list of finite numbers; empty input is
// nil. NaN and ±Inf, which strconv accepts, are Invalid-class.
func Floats(arg string) ([]float64, error) {
	if arg == "" {
		return nil, nil
	}
	var out []float64
	for _, s := range strings.Split(arg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nwerr.Invalidf("invalid number %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// Spec resolves a wires/rawbits pair (the -wires and -rawbits flags,
// nwserve's ?wires and ?rawbits) into a crossbar spec. Zero means the
// default: with both zero the spec is the zero value, which core.Config
// defaults; otherwise a positive value overrides the default platform's.
// A negative value is Invalid-class.
func Spec(wires, rawBits int) (geometry.CrossbarSpec, error) {
	var spec geometry.CrossbarSpec
	if wires < 0 || rawBits < 0 {
		return spec, nwerr.Invalidf("wires and rawbits must not be negative, got %d and %d", wires, rawBits)
	}
	if wires == 0 && rawBits == 0 {
		return spec, nil
	}
	spec = geometry.DefaultCrossbarSpec()
	if wires > 0 {
		spec.HalfCaveWires = wires
	}
	if rawBits > 0 {
		spec.RawBits = rawBits
	}
	return spec, nil
}

// Peers parses a -peers flag value: comma-separated ID=URL pairs naming
// the other nodes of a fleet ("b=http://host2:8607,c=http://host3:8607").
// Blank entries are skipped; duplicate ids and an entry without both
// halves are Invalid-class errors, as is a value naming no nodes at all.
func Peers(arg string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, nwerr.Invalidf("-peers entry %q: want ID=URL", part)
		}
		if _, dup := peers[id]; dup {
			return nil, nwerr.Invalidf("-peers names node %q twice", id)
		}
		peers[id] = url
	}
	if len(peers) == 0 {
		return nil, nwerr.Invalidf("-peers %q names no nodes", arg)
	}
	return peers, nil
}

// Types parses a comma-separated code-family list; empty input is nil.
func Types(arg string) ([]code.Type, error) {
	if arg == "" {
		return nil, nil
	}
	var out []code.Type
	for _, s := range strings.Split(arg, ",") {
		tp, err := code.ParseType(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, tp)
	}
	return out, nil
}
