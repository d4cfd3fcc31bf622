package dataset

import (
	"encoding/json"
	"fmt"
	"io"
)

// ParseKind resolves a kind from its JSON name.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "string":
		return String, nil
	case "int":
		return Int, nil
	case "float":
		return Float, nil
	case "bool":
		return Bool, nil
	}
	return 0, fmt.Errorf("dataset: unknown column kind %q", name)
}

// ParseJSON reads one dataset back from its JSON interchange form (the
// output of WriteJSON), converting each row cell to its column's Go type.
// It is the inverse the cluster peer protocol needs: a node serves its
// cached dataset as JSON and the requesting node reconstructs a Dataset
// it can render in any format. The full-fidelity text renderer does not
// cross the wire: Text() of a parsed dataset falls back to the generic
// table.
func ParseJSON(r io.Reader) (*Dataset, error) {
	var doc jsonDataset
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("dataset: parsing JSON: %w", err)
	}
	cols := make([]Column, len(doc.Columns))
	for i, c := range doc.Columns {
		kind, err := ParseKind(c.Kind)
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: c.Name, Unit: c.Unit, Kind: kind}
	}
	d := New(doc.Name, doc.Title, cols...)
	d.Meta = Meta{
		Experiment: doc.Meta.Experiment,
		Seed:       doc.Meta.Seed,
		Trials:     doc.Meta.Trials,
		ConfigHash: doc.Meta.ConfigHash,
	}
	d.Notes = doc.Notes
	for ri, row := range doc.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("dataset %s: row %d has %d cells, schema has %d columns",
				doc.Name, ri, len(row), len(cols))
		}
		cells := make([]any, len(row))
		for ci, v := range row {
			cell, err := parseCell(cols[ci].Kind, v)
			if err != nil {
				return nil, fmt.Errorf("dataset %s: row %d, column %s: %w", doc.Name, ri, cols[ci].Name, err)
			}
			cells[ci] = cell
		}
		d.AddRow(cells...)
	}
	return d, nil
}

// parseCell converts one decoded JSON value to the Go type of its
// column's kind. Numbers arrive as json.Number (ParseJSON decodes with
// UseNumber), so integers survive beyond float64's exact range.
func parseCell(k Kind, v any) (any, error) {
	switch k {
	case String:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("want string, got %T", v)
		}
		return s, nil
	case Int:
		n, ok := v.(json.Number)
		if !ok {
			return nil, fmt.Errorf("want integer, got %T", v)
		}
		i, err := n.Int64()
		if err != nil {
			return nil, fmt.Errorf("want integer, got %q", n.String())
		}
		return int(i), nil
	case Float:
		n, ok := v.(json.Number)
		if !ok {
			return nil, fmt.Errorf("want number, got %T", v)
		}
		f, err := n.Float64()
		if err != nil {
			return nil, fmt.Errorf("want number, got %q", n.String())
		}
		return f, nil
	case Bool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("want bool, got %T", v)
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown kind %v", k)
}
