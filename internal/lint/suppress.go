package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// directive is one parsed, well-formed ignore comment.
type directive struct {
	file    string
	line    int
	rule    string
	pos     ast.Node // the comment, for stale reporting and deletion
	matched bool
}

const ignorePrefix = "//nwlint:ignore"

// suppress drops diagnostics covered by a well-formed ignore directive
// on the same line or the line above, reports malformed directives and
// directives naming an unknown rule under the pseudo-rule "ignore", and
// reports well-formed directives that suppressed nothing as stale — but
// only when the directive's rule was among the rules that ran (ran), so a
// -rules subset run never misclassifies a live suppression. An unknown
// rule never runs, so its directive is reported whatever ran. Every
// report carries a fix that deletes the directive.
func suppress(pkg *Package, diags []Diagnostic, ran map[string]bool) []Diagnostic {
	var dirs []*directive
	var extra []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					extra = append(extra, Diagnostic{
						Position: pos,
						Rule:     "ignore",
						Message:  fmt.Sprintf("malformed directive %q: want //nwlint:ignore <rule> <reason>", c.Text),
						Fixes:    []SuggestedFix{deleteComment(c)},
					})
					continue
				}
				dirs = append(dirs, &directive{file: pos.Filename, line: pos.Line, rule: fields[0], pos: c})
			}
		}
	}
	if len(dirs) > 0 {
		kept := diags[:0]
		for _, d := range diags {
			suppressed := false
			for _, dir := range dirs {
				if d.Rule == dir.rule && d.Position.Filename == dir.file &&
					(d.Position.Line == dir.line || d.Position.Line == dir.line+1) {
					dir.matched = true
					suppressed = true
					break
				}
			}
			if !suppressed {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	for _, dir := range dirs {
		var msg string
		switch {
		case lookup(dir.rule) == nil:
			msg = fmt.Sprintf("directive names unknown rule %q and suppresses nothing (known: %s)", dir.rule, knownRules())
		case !dir.matched && ran[dir.rule]:
			msg = fmt.Sprintf("stale directive: no %s diagnostic is suppressed here anymore; delete it", dir.rule)
		default:
			continue
		}
		extra = append(extra, Diagnostic{
			Position: pkg.Fset.Position(dir.pos.Pos()),
			Rule:     "ignore",
			Message:  msg,
			Fixes:    []SuggestedFix{deleteComment(dir.pos)},
		})
	}
	return append(diags, extra...)
}

// deleteComment is the fix shared by malformed and stale directives:
// remove the comment text (gofmt reclaims any leftover blank line).
func deleteComment(c ast.Node) SuggestedFix {
	return SuggestedFix{
		Message: "delete the directive",
		Edits:   []TextEdit{{Pos: c.Pos(), End: c.End(), NewText: ""}},
	}
}
