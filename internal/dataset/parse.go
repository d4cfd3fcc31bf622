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
	return parse(sb.String(), false)
}

// CheckJSON reports whether data is a document ParseJSON accepts,
// without building the dataset: it returns nil exactly when ParseJSON
// would return a dataset, and otherwise an error with exactly the text
// ParseJSON's would have. It walks the same grammar with the same
// decoder in check mode, which keeps the schema its row errors name but
// allocates no cell, row or string, so its allocations do not grow with
// the document.
func CheckJSON(data []byte) error {
	_, err := parse(string(data), true)
	return err
}

// The keys of the three JSON objects, in the order WriteJSON emits them.
var (
	docKeys    = []string{"name", "title", "meta", "columns", "rows", "notes"}
	metaKeys   = []string{"experiment", "seed", "trials", "configHash"}
	columnKeys = []string{"name", "unit", "kind"}
)

// decoder is the cursor of one pass over the document s. A check pass
// (CheckJSON) walks the same grammar and returns the same errors as a
// build pass (ParseJSON), but keeps only the columns: no cell, row,
// note or string of the document is built.
type decoder struct {
	s     string
	i     int
	check bool
}

// parse makes one pass over the document s, a check pass when check is
// set.
func parse(s string, check bool) (*Dataset, error) {
	p := decoder{s: s, check: check}
	d, err := p.document()
	if err != nil {
		return nil, fmt.Errorf("dataset: parsing JSON: %w", err)
	}
	return d, nil
}

func (p *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", p.i, fmt.Sprintf(format, args...))
}

// next skips JSON whitespace and returns the byte at the cursor, 0 at the
// end of the document (or at a NUL byte, which no caller expects).
// WriteJSON puts every value on its own indented line, so this loop runs
// over much of every document.
func (p *decoder) next() byte {
	s, i := p.s, p.i
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	p.i = i
	if i == len(s) {
		return 0
	}
	return s[i]
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
		key, err := p.scan(transient)
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
// it but whitespace. A check pass returns a dataset holding only the
// columns.
func (p *decoder) document() (*Dataset, error) {
	d := &Dataset{}
	err := p.object(docKeys, func(k int) (err error) {
		switch k {
		case 0:
			d.Name, err = p.scan(p.kept())
		case 1:
			d.Title, err = p.scan(p.kept())
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
				n, err := p.scan(p.kept())
				if !p.check {
					d.Notes = append(d.Notes, n)
				}
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
			m.Experiment, err = p.scan(p.kept())
		case 1:
			var lit string
			if lit, _, _, err = p.num(); err == nil {
				if m.Seed, err = strconv.ParseUint(lit, 10, 64); err != nil {
					err = p.errorf("seed %s is not a uint64", lit)
				}
			}
		case 2:
			m.Trials, err = p.integer()
		case 3:
			m.ConfigHash, err = p.scan(p.kept())
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
			// A check pass reads the name too: its row errors name the
			// column.
			mode := copied
			if p.check {
				mode = transient
			}
			c.Name, err = p.scan(mode)
		case 1:
			c.Unit, err = p.scan(p.kept())
		case 2:
			var name string
			if name, err = p.scan(transient); err == nil {
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

// rows parses the row array, each cell as its column's kind. A check pass
// keeps no row.
func (p *decoder) rows(d *Dataset) error {
	cols := d.Columns
	ri := 0
	return p.array(func() error {
		var row []any
		if !p.check {
			row = make([]any, 0, len(cols))
		}
		n := 0
		err := p.array(func() error {
			if n == len(cols) {
				return p.errorf("row %d has more than %d cells", ri, len(cols))
			}
			v, err := p.cell(cols[n].Kind)
			if err != nil {
				return fmt.Errorf("row %d, column %s: %w", ri, cols[n].Name, err)
			}
			if !p.check {
				row = append(row, v)
			}
			n++
			return nil
		})
		if err == nil && n != len(cols) {
			err = p.errorf("row %d has %d cells, schema has %d columns", ri, n, len(cols))
		}
		if !p.check {
			d.Rows = append(d.Rows, row)
		}
		ri++
		return err
	})
}

// cell parses one cell as kind k. A check pass gets strings, ints and
// floats back as zeros, which box without allocating, as booleans do.
func (p *decoder) cell(k Kind) (any, error) {
	switch k {
	case String:
		return p.scan(p.kept())
	case Int:
		return p.integer()
	case Float:
		return p.float()
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

// integer parses an int64 number; a check pass returns 0. It skips
// strconv for a check pass's literal of at most 18 bytes with neither a
// fraction nor an exponent: that is at most 18 digits, below
// 10^18 < 2^63, so ParseInt could not fail on it.
func (p *decoder) integer() (int, error) {
	lit, frac, exp, err := p.num()
	switch {
	case err != nil:
		return 0, err
	case p.check && !frac && !exp && len(lit) <= 18:
		return 0, nil
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	switch {
	case err != nil:
		return 0, p.errorf("%s is not an int64", lit)
	case p.check:
		return 0, nil
	}
	return int(n), nil
}

// float parses a float64 number; a check pass returns 0. It skips
// strconv for a check pass's literal with no exponent and fewer than 309
// bytes: that has at most 308 integer digits, below
// 10^308 < math.MaxFloat64, so it cannot overflow, and the only other
// range error ParseFloat could report, underflow, it rounds to zero
// without an error.
func (p *decoder) float() (float64, error) {
	lit, _, exp, err := p.num()
	switch {
	case err != nil:
		return 0, err
	case p.check && !exp && len(lit) < 309:
		return 0, nil
	}
	f, err := strconv.ParseFloat(lit, 64)
	switch {
	case err != nil:
		return 0, p.errorf("%s is not a float64", lit)
	case p.check:
		return 0, nil
	}
	return f, nil
}

// num scans one JSON number and returns its literal bytes and whether
// it has a fraction and an exponent:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *decoder) num() (lit string, frac, exp bool, err error) {
	p.next()
	start := p.i
	if p.i < len(p.s) && p.s[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.s) && p.s[p.i] == '0':
		p.i++
	case !p.digits():
		return "", false, false, p.errorf("want a number")
	}
	if p.i < len(p.s) && p.s[p.i] == '.' {
		p.i++
		if !p.digits() {
			return "", false, false, p.errorf("want a digit after '.'")
		}
		frac = true
	}
	if p.i < len(p.s) && (p.s[p.i] == 'e' || p.s[p.i] == 'E') {
		p.i++
		if p.i < len(p.s) && (p.s[p.i] == '+' || p.s[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return "", false, false, p.errorf("want a digit in the exponent")
		}
		exp = true
	}
	return p.s[start:p.i], frac, exp, nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (p *decoder) digits() bool {
	s, i := p.s, p.i
	for i < len(s) && s[i]-'0' <= 9 {
		i++
	}
	start := p.i
	p.i = i
	return i > start
}

// What scan makes of a string.
type strMode int

const (
	// copied strings are new: a string the dataset keeps is copied out
	// of the document rather than sliced from it, since a slice would
	// keep the whole document alive for as long as any of its cells
	// lives.
	copied strMode = iota
	// transient strings are slices of the document unless they hold an
	// escape: keys, kinds and other strings the pass only reads.
	transient
	// skipped strings are only validated, and scan returns "".
	skipped
)

// kept is the mode of a string the dataset keeps: copied in a build
// pass, skipped in a check pass.
func (p *decoder) kept() strMode {
	if p.check {
		return skipped
	}
	return copied
}

// scan parses one JSON string in the given mode.
func (p *decoder) scan(mode strMode) (string, error) {
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
			switch {
			case mode == skipped:
				return "", nil
			case buf != nil:
				return string(append(buf, s...)), nil
			case mode == transient:
				return s, nil
			}
			return strings.Clone(s), nil
		case c == '\\':
			end := p.i
			r, err := p.escape()
			if err != nil {
				return "", err
			}
			if mode != skipped {
				buf = utf8.AppendRune(append(buf, p.s[run:end]...), r)
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

// escape decodes the escape sequence at the cursor.
func (p *decoder) escape() (rune, error) {
	if p.i+1 >= len(p.s) {
		return 0, p.errorf("unterminated string")
	}
	c := p.s[p.i+1]
	p.i += 2
	if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
		return rune("\"\\/\b\f\n\r\t"[k]), nil
	}
	if c != 'u' {
		return 0, p.errorf("invalid escape \\%c", c)
	}
	hex := ""
	if p.i+4 <= len(p.s) {
		hex = p.s[p.i : p.i+4]
	}
	r, err := strconv.ParseUint(hex, 16, 32)
	if err != nil {
		return 0, p.errorf("want four hex digits after \\u")
	}
	if utf16.IsSurrogate(rune(r)) {
		// WriteJSON writes every rune beyond the BMP as UTF-8.
		return 0, p.errorf("surrogate escape \\u%s", hex)
	}
	p.i += 4
	return rune(r), nil
}
