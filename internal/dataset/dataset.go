// Package dataset is the structured result model of the experiment
// pipeline: every experiment produces a Dataset — a schema of named, typed,
// unit-annotated columns plus rows of values and reproducibility metadata —
// and rendering happens at the edge (CLI, report generator, future service
// front ends) in any of four formats: text, CSV, JSON and Markdown.
//
// The model exists so results can be composed and machine-consumed instead
// of passed around as pre-rendered strings: the report generator assembles
// Markdown tables from the same rows the CLIs serialize as JSON, and golden
// tests pin the figure data itself rather than fragile text snapshots.
//
// Serialized output (CSV/JSON/Markdown) is a pure function of the data:
// execution details such as the worker count are recorded in Meta for
// programmatic access but excluded from serialization, so — combined with
// the determinism guarantee of internal/par — a dataset serializes
// bit-identically at every worker count.
package dataset

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
)

// Kind is the value type of a column.
type Kind int

// Column kinds. Every cell of a column must hold the Go type of its kind:
// string, int, float64 or bool.
const (
	String Kind = iota
	Int
	Float
	Bool
)

// String returns the JSON name of the kind.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Column is one named, typed column of a dataset.
type Column struct {
	// Name identifies the column; unique within a dataset.
	Name string
	// Unit annotates the physical unit ("nm²", "V", "%"), empty for
	// dimensionless columns.
	Unit string
	// Kind is the value type of every cell in the column.
	Kind Kind
}

// Col is shorthand for a dimensionless column.
func Col(name string, kind Kind) Column { return Column{Name: name, Kind: kind} }

// ColUnit is shorthand for a column with a physical unit.
func ColUnit(name, unit string, kind Kind) Column {
	return Column{Name: name, Unit: unit, Kind: kind}
}

// Meta carries the reproducibility metadata of a dataset.
type Meta struct {
	// Experiment is the registry name that produced the dataset.
	Experiment string
	// Seed is the RNG seed of stochastic experiments (0 for analytic ones).
	Seed uint64
	// Trials is the Monte-Carlo repetition count (0 for analytic
	// experiments).
	Trials int
	// ConfigHash fingerprints the platform configuration the experiment ran
	// on (see Fingerprint).
	ConfigHash string
}

// Dataset is one experiment result: a columnar table plus metadata and
// free-text notes (the derived summary lines that accompany a figure).
type Dataset struct {
	// Name is the machine name ("fig7", "headline").
	Name string
	// Title is the human heading of the result.
	Title string
	// Columns is the schema; every row has exactly one cell per column.
	Columns []Column
	// Rows holds the cell values; cell i of every row has the Go type of
	// Columns[i].Kind.
	Rows [][]any
	// Meta is the reproducibility metadata.
	Meta Meta
	// Notes are derived summary lines (comparison ratios, paper-vs-measured
	// commentary) that render after the table.
	Notes []string

	// textFn, when set, renders the full-fidelity text form of the result
	// (series plots, heat maps) that the columnar model cannot carry.
	textFn func() string
}

// New creates an empty dataset with the given schema.
func New(name, title string, cols ...Column) *Dataset {
	return &Dataset{Name: name, Title: title, Columns: cols}
}

// AddRow appends one row. The cell count must match the schema and every
// cell must hold its column's Go type; a mismatch panics, since it is a
// programming error in the producing experiment, not a data condition.
func (d *Dataset) AddRow(cells ...any) {
	if len(cells) != len(d.Columns) {
		panic(fmt.Sprintf("dataset %s: row has %d cells, schema has %d columns",
			d.Name, len(cells), len(d.Columns)))
	}
	for i, c := range cells {
		if !kindMatches(d.Columns[i].Kind, c) {
			panic(fmt.Sprintf("dataset %s: column %s wants %s, got %T",
				d.Name, d.Columns[i].Name, d.Columns[i].Kind, c))
		}
	}
	d.Rows = append(d.Rows, cells)
}

// Note appends a formatted summary line.
func (d *Dataset) Note(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// Clone returns an independent copy of the dataset: schema, rows, notes
// and metadata are all duplicated, so mutating one copy (adding rows,
// stamping Meta) never leaks into the other. The result-cache of the
// engine layer hands clones to callers for exactly this reason. Cell
// values and the text renderer are shared — cells are immutable value
// types and the renderer is a pure function of construction-time data.
func (d *Dataset) Clone() *Dataset {
	out := *d
	out.Columns = slices.Clone(d.Columns)
	out.Rows = make([][]any, len(d.Rows))
	for i, row := range d.Rows {
		out.Rows[i] = slices.Clone(row)
	}
	out.Notes = slices.Clone(d.Notes)
	return &out
}

// SetText installs the full-fidelity text renderer of the result. Text()
// falls back to a generic table when none is set.
func (d *Dataset) SetText(fn func() string) { d.textFn = fn }

// Concat assembles one dataset from an ordered sequence of parts sharing
// a schema: the result carries the first part's name, title, metadata and
// notes, and the rows of every part in input order. It is the assembly
// primitive of the chunked job layer — per-chunk checkpoint datasets
// concatenate back into the dataset an uninterrupted run would have
// produced, bit-identically, because rows are appended without
// re-rendering. Parts whose name or schema disagree with the first are
// rejected; at least one part is required (an empty result needs a schema
// to exist).
func Concat(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dataset: concat of zero parts has no schema")
	}
	out := parts[0].Clone()
	for i, p := range parts[1:] {
		if p.Name != out.Name {
			return nil, fmt.Errorf("dataset: concat part %d is %q, want %q", i+1, p.Name, out.Name)
		}
		if !slices.Equal(p.Columns, out.Columns) {
			return nil, fmt.Errorf("dataset: concat part %d (%s) has a different schema", i+1, p.Name)
		}
		for _, row := range p.Rows {
			out.Rows = append(out.Rows, slices.Clone(row))
		}
	}
	return out, nil
}

func kindMatches(k Kind, v any) bool {
	switch k {
	case String:
		_, ok := v.(string)
		return ok
	case Int:
		_, ok := v.(int)
		return ok
	case Float:
		_, ok := v.(float64)
		return ok
	case Bool:
		_, ok := v.(bool)
		return ok
	}
	return false
}

// formatCell renders one cell for CSV and Markdown output. Floats use the
// shortest round-trip form so serialization never loses precision.
func formatCell(v any) string {
	switch c := v.(type) {
	case string:
		return c
	case int:
		return strconv.Itoa(c)
	case float64:
		return strconv.FormatFloat(c, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(c)
	default:
		return fmt.Sprintf("%v", c)
	}
}

// Fingerprint hashes a configuration value into a short stable hex string
// for Meta.ConfigHash: FNV-1a over the %+v rendering, so structurally equal
// configurations fingerprint identically.
func Fingerprint(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}
