package dataset

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
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
// output of WriteJSON). It is the inverse the cluster peer protocol and
// the job checkpoints need: a node serves its cached dataset as JSON and
// the requesting node reconstructs a Dataset it can render in any
// format. The full-fidelity text renderer does not cross the wire: Text()
// of a parsed dataset falls back to the generic table.
//
// The decoder makes one pass over the document, directed by the schema:
// the columns come before the rows, so each cell is parsed straight into
// its column's Go type (strconv on the number's bytes, so integers
// survive beyond float64's exact range). It accepts the document
// WriteJSON emits, with any JSON whitespace: the keys of the top level,
// meta and each column appear in WriteJSON's order, each spelled exactly
// and at most once; any may be absent except a column's kind. Unknown,
// repeated, misordered or case-variant keys, null, invalid UTF-8,
// surrogate escapes and bytes after the document are rejected, so the
// accepted language is a strict subset of what encoding/json would
// decode into the same form.
func ParseJSON(r io.Reader) (*Dataset, error) {
	var sb strings.Builder
	// io.Copy's own buffer is 32 KiB, many times a typical peer answer;
	// a reader with WriteTo (the checkpoint path's) needs none.
	if _, err := io.CopyBuffer(&sb, r, make([]byte, 512)); err != nil {
		return nil, fmt.Errorf("dataset: reading JSON: %w", err)
	}
	p := decoder{s: sb.String()}
	d, err := p.document()
	if err != nil {
		return nil, fmt.Errorf("dataset: parsing JSON: %w", err)
	}
	return d, nil
}

// The keys of the three JSON objects, in the order WriteJSON emits them.
var (
	docKeys    = []string{"name", "title", "meta", "columns", "rows", "notes"}
	metaKeys   = []string{"experiment", "seed", "trials", "configHash"}
	columnKeys = []string{"name", "unit", "kind"}
)

// decoder is the cursor of one ParseJSON pass over the document s.
type decoder struct {
	s string
	i int
}

func (p *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", p.i, fmt.Sprintf(format, args...))
}

// next skips JSON whitespace and returns the byte at the cursor, 0 at the
// end of the document (or at a NUL byte, which no caller expects).
func (p *decoder) next() byte {
	for ; p.i < len(p.s); p.i++ {
		switch c := p.s[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes the byte c after any whitespace.
func (p *decoder) expect(c byte) error {
	if p.next() != c {
		return p.errorf("want %q", c)
	}
	p.i++
	return nil
}

// more consumes the separator after an object member or array element and
// reports whether another one follows: ',' does, the closing byte end
// does not.
func (p *decoder) more(end byte) (bool, error) {
	switch p.next() {
	case ',':
		p.i++
		return true, nil
	case end:
		p.i++
		return false, nil
	}
	return false, p.errorf("want ',' or %q", end)
}

// object parses a JSON object whose keys are drawn from keys in that
// order, each at most once, calling field with the index of each key
// found to parse its value.
func (p *decoder) object(keys []string, field func(k int) error) error {
	if err := p.expect('{'); err != nil {
		return err
	}
	if p.next() == '}' {
		p.i++
		return nil
	}
	for k := 0; ; k++ {
		key, err := p.str()
		if err != nil {
			return err
		}
		for k < len(keys) && keys[k] != key {
			k++
		}
		if k == len(keys) {
			return p.errorf("unexpected key %q", key)
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		if err := field(k); err != nil {
			return err
		}
		if more, err := p.more('}'); !more {
			return err
		}
	}
}

// array parses a JSON array, calling elem to parse each element.
func (p *decoder) array(elem func() error) error {
	if err := p.expect('['); err != nil {
		return err
	}
	if p.next() == ']' {
		p.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if more, err := p.more(']'); !more {
			return err
		}
	}
}

// document parses the whole input: one dataset object and nothing after
// it but whitespace.
func (p *decoder) document() (*Dataset, error) {
	d := &Dataset{}
	err := p.object(docKeys, func(k int) (err error) {
		switch k {
		case 0:
			d.Name, err = p.str()
		case 1:
			d.Title, err = p.str()
		case 2:
			err = p.meta(&d.Meta)
		case 3:
			err = p.array(func() error {
				c, err := p.column()
				d.Columns = append(d.Columns, c)
				return err
			})
		case 4:
			err = p.rows(d)
		case 5:
			err = p.array(func() error {
				n, err := p.str()
				d.Notes = append(d.Notes, n)
				return err
			})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if p.next(); p.i < len(p.s) {
		return nil, p.errorf("data after the document")
	}
	return d, nil
}

func (p *decoder) meta(m *Meta) error {
	return p.object(metaKeys, func(k int) (err error) {
		switch k {
		case 0:
			m.Experiment, err = p.str()
		case 1:
			var lit string
			if lit, err = p.num(); err == nil {
				if m.Seed, err = strconv.ParseUint(lit, 10, 64); err != nil {
					err = p.errorf("seed %s is not a uint64", lit)
				}
			}
		case 2:
			m.Trials, err = p.integer()
		case 3:
			m.ConfigHash, err = p.str()
		}
		return err
	})
}

func (p *decoder) column() (Column, error) {
	var c Column
	hasKind := false
	err := p.object(columnKeys, func(k int) (err error) {
		switch k {
		case 0:
			c.Name, err = p.str()
		case 1:
			c.Unit, err = p.str()
		case 2:
			var name string
			if name, err = p.str(); err == nil {
				c.Kind, err = ParseKind(name)
				hasKind = true
			}
		}
		return err
	})
	if err == nil && !hasKind {
		err = p.errorf("column %q has no kind", c.Name)
	}
	return c, err
}

// rows parses the row array, each cell as its column's kind.
func (p *decoder) rows(d *Dataset) error {
	cols := d.Columns
	return p.array(func() error {
		row := make([]any, 0, len(cols))
		err := p.array(func() error {
			ci := len(row)
			if ci == len(cols) {
				return p.errorf("row %d has more than %d cells", len(d.Rows), len(cols))
			}
			v, err := p.cell(cols[ci].Kind)
			if err != nil {
				return fmt.Errorf("row %d, column %s: %w", len(d.Rows), cols[ci].Name, err)
			}
			row = append(row, v)
			return nil
		})
		if err == nil && len(row) != len(cols) {
			err = p.errorf("row %d has %d cells, schema has %d columns", len(d.Rows), len(row), len(cols))
		}
		d.Rows = append(d.Rows, row)
		return err
	})
}

func (p *decoder) cell(k Kind) (any, error) {
	switch k {
	case String:
		return p.str()
	case Int:
		return p.integer()
	case Float:
		lit, err := p.num()
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return nil, p.errorf("%s is not a float64", lit)
		}
		return f, nil
	}
	// Bool, the last kind ParseKind admits.
	p.next()
	switch {
	case strings.HasPrefix(p.s[p.i:], "true"):
		p.i += len("true")
		return true, nil
	case strings.HasPrefix(p.s[p.i:], "false"):
		p.i += len("false")
		return false, nil
	}
	return nil, p.errorf("want true or false")
}

func (p *decoder) integer() (int, error) {
	lit, err := p.num()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return 0, p.errorf("%s is not an int64", lit)
	}
	return int(n), nil
}

// num scans one JSON number and returns its literal bytes:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *decoder) num() (string, error) {
	p.next()
	start := p.i
	if p.i < len(p.s) && p.s[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.s) && p.s[p.i] == '0':
		p.i++
	case !p.digits():
		return "", p.errorf("want a number")
	}
	if p.i < len(p.s) && p.s[p.i] == '.' {
		p.i++
		if !p.digits() {
			return "", p.errorf("want a digit after '.'")
		}
	}
	if p.i < len(p.s) && (p.s[p.i] == 'e' || p.s[p.i] == 'E') {
		p.i++
		if p.i < len(p.s) && (p.s[p.i] == '+' || p.s[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return "", p.errorf("want a digit in the exponent")
		}
	}
	return p.s[start:p.i], nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (p *decoder) digits() bool {
	start := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// str parses one JSON string into a new string. A string without escapes
// is copied out of the document rather than sliced from it: a slice would
// keep the whole document alive for as long as any of its cells lives.
func (p *decoder) str() (string, error) {
	if err := p.expect('"'); err != nil {
		return "", err
	}
	var buf []byte // the decoded prefix, nil until the first escape
	run := p.i     // start of the pending unescaped run
	for p.i < len(p.s) {
		switch c := p.s[p.i]; {
		case c == '"':
			s := p.s[run:p.i]
			p.i++
			if buf == nil {
				return strings.Clone(s), nil
			}
			return string(append(buf, s...)), nil
		case c == '\\':
			var err error
			if buf, err = p.escape(append(buf, p.s[run:p.i]...)); err != nil {
				return "", err
			}
			run = p.i
		case c < 0x20:
			return "", p.errorf("control byte %#x in string", c)
		case c < utf8.RuneSelf:
			p.i++
		default:
			r, size := utf8.DecodeRuneInString(p.s[p.i:])
			if r == utf8.RuneError && size == 1 {
				return "", p.errorf("invalid UTF-8 in string")
			}
			p.i += size
		}
	}
	return "", p.errorf("unterminated string")
}

// escape decodes the escape sequence at the cursor onto buf, which it
// leaves non-nil.
func (p *decoder) escape(buf []byte) ([]byte, error) {
	if p.i+1 >= len(p.s) {
		return nil, p.errorf("unterminated string")
	}
	c := p.s[p.i+1]
	p.i += 2
	if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
		return append(buf, "\"\\/\b\f\n\r\t"[k]), nil
	}
	if c != 'u' {
		return nil, p.errorf("invalid escape \\%c", c)
	}
	hex := ""
	if p.i+4 <= len(p.s) {
		hex = p.s[p.i : p.i+4]
	}
	r, err := strconv.ParseUint(hex, 16, 32)
	if err != nil {
		return nil, p.errorf("want four hex digits after \\u")
	}
	if utf16.IsSurrogate(rune(r)) {
		// WriteJSON writes every rune beyond the BMP as UTF-8.
		return nil, p.errorf("surrogate escape \\u%s", hex)
	}
	p.i += 4
	return utf8.AppendRune(buf, rune(r)), nil
}
