package dataset

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"nwdec/internal/textplot"
)

// Format selects an output rendering of a dataset.
type Format int

// The four output formats of the pipeline.
const (
	// FormatText is the terminal rendering: the experiment's full-fidelity
	// figure (plots, heat maps, tables) when available, a generic table
	// otherwise.
	FormatText Format = iota
	// FormatJSON is the machine interchange form: schema, rows, metadata
	// and notes as one JSON document.
	FormatJSON
	// FormatCSV is the tidy tabular form: one header row of column names,
	// then the data rows.
	FormatCSV
	// FormatMarkdown is the documentation form: a pipe table under the
	// dataset title, followed by the notes.
	FormatMarkdown
)

// String returns the flag spelling of the format.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	case FormatMarkdown:
		return "md"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat resolves a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "text", "txt":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	case "csv":
		return FormatCSV, nil
	case "md", "markdown":
		return FormatMarkdown, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want text, json, csv or md)", s)
	}
}

// Formats lists the flag spellings for usage strings.
func Formats() string { return "text|json|csv|md" }

// Render writes the dataset to w in the given format.
func (d *Dataset) Render(w io.Writer, f Format) error {
	switch f {
	case FormatText:
		_, err := io.WriteString(w, d.Text())
		return err
	case FormatJSON:
		return d.WriteJSON(w)
	case FormatCSV:
		return d.WriteCSV(w)
	case FormatMarkdown:
		_, err := io.WriteString(w, d.Markdown())
		return err
	default:
		return fmt.Errorf("dataset: unknown format %v", f)
	}
}

// Text renders the full-fidelity text form when the producing experiment
// installed one (series plots, heat maps), and a generic titled table
// otherwise.
func (d *Dataset) Text() string {
	if d.textFn != nil {
		return d.textFn()
	}
	headers := make([]string, len(d.Columns))
	for i, c := range d.Columns {
		headers[i] = c.Name
		if c.Unit != "" {
			headers[i] += " [" + c.Unit + "]"
		}
	}
	tb := textplot.NewTable(d.Title, headers...)
	for _, row := range d.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = formatCell(v)
		}
		tb.AddRow(cells...)
	}
	out := tb.String()
	for _, n := range d.Notes {
		out += n + "\n"
	}
	return out
}

// WriteCSV emits the header row of column names followed by the data rows.
// Units and notes are not part of the CSV form; consumers needing them
// should use JSON.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(d.Columns))
	for i, c := range d.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(d.Columns))
	for _, row := range d.Rows {
		for i, v := range row {
			rec[i] = formatCell(v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSV renders the CSV form as a string.
func (d *Dataset) CSV() string {
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		// A strings.Builder never fails, so this is a schema bug in the
		// producing experiment, not a data condition.
		panic("dataset: CSV rendering failed: " + err.Error())
	}
	return sb.String()
}

// jsonColumn and jsonDataset shape the JSON interchange form.
type jsonColumn struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
	Kind string `json:"kind"`
}

type jsonMeta struct {
	Experiment string `json:"experiment,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Trials     int    `json:"trials,omitempty"`
	ConfigHash string `json:"configHash,omitempty"`
}

type jsonDataset struct {
	Name    string       `json:"name"`
	Title   string       `json:"title"`
	Meta    jsonMeta     `json:"meta"`
	Columns []jsonColumn `json:"columns"`
	Rows    [][]any      `json:"rows"`
	Notes   []string     `json:"notes,omitempty"`
}

func (d *Dataset) jsonForm() jsonDataset {
	cols := make([]jsonColumn, len(d.Columns))
	for i, c := range d.Columns {
		cols[i] = jsonColumn{Name: c.Name, Unit: c.Unit, Kind: c.Kind.String()}
	}
	rows := d.Rows
	if rows == nil {
		rows = [][]any{}
	}
	return jsonDataset{
		Name:  d.Name,
		Title: d.Title,
		Meta: jsonMeta{
			Experiment: d.Meta.Experiment,
			Seed:       d.Meta.Seed,
			Trials:     d.Meta.Trials,
			ConfigHash: d.Meta.ConfigHash,
		},
		Columns: cols,
		Rows:    rows,
		Notes:   d.Notes,
	}
}

// WriteJSON emits the dataset as one indented JSON document with a trailing
// newline. The encoding is deterministic: struct fields marshal in
// declaration order and the row values are plain strings, integers, floats
// and booleans.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d.jsonForm())
}

// JSON renders the JSON form as bytes.
func (d *Dataset) JSON() ([]byte, error) {
	var sb strings.Builder
	if err := d.WriteJSON(&sb); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

// WriteJSONArray emits multiple datasets as one indented JSON array, for
// run-all output.
func WriteJSONArray(w io.Writer, dss []*Dataset) error {
	forms := make([]jsonDataset, len(dss))
	for i, d := range dss {
		forms[i] = d.jsonForm()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(forms)
}

// MarkdownTable renders just the pipe table of the rows, for embedding
// under a caller-supplied heading (the report generator does this).
func (d *Dataset) MarkdownTable() string {
	var sb strings.Builder
	for i, c := range d.Columns {
		if i > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString("| ")
		sb.WriteString(c.Name)
		if c.Unit != "" {
			sb.WriteString(" [" + c.Unit + "]")
		}
	}
	sb.WriteString(" |\n")
	for range d.Columns {
		sb.WriteString("|---")
	}
	sb.WriteString("|\n")
	for _, row := range d.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteString(" ")
			}
			sb.WriteString("| ")
			sb.WriteString(formatCell(v))
		}
		sb.WriteString(" |\n")
	}
	return sb.String()
}

// Markdown renders a complete section: the title as a level-2 heading, the
// pipe table, then the notes as a paragraph.
func (d *Dataset) Markdown() string {
	var sb strings.Builder
	if d.Title != "" {
		sb.WriteString("## " + d.Title + "\n\n")
	}
	sb.WriteString(d.MarkdownTable())
	if len(d.Notes) > 0 {
		sb.WriteString("\n")
		for _, n := range d.Notes {
			sb.WriteString(n + "\n")
		}
	}
	return sb.String()
}
