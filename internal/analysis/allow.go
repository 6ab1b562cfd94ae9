package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// allowDirective is one parsed //ciovet:allow comment.
type allowDirective struct {
	pos    token.Pos // the directive comment itself
	file   string
	line   int // line the directive applies to (its own line, or the next)
	rule   string
	reason string
}

// allowIndex maps (file, line, rule) to a suppression reason.
type allowIndex map[string]map[int][]allowDirective

const directivePrefix = "//ciovet:allow"

// buildAllowIndex scans every comment in the package for //ciovet:allow
// directives. A directive suppresses matching diagnostics on its own source
// line and, when it stands alone on a line, on the following line — the two
// placements gofmt permits. Malformed directives come back as diagnostics:
// the escape hatch must always carry a rule and a reason.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Rule: "allow",
						Message: "ciovet:allow directive is missing a rule name"})
					continue
				}
				rule := fields[0]
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), rule))
				if reason == "" {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Rule: "allow",
						Message: "ciovet:allow " + rule + " needs a reason: opting out of a hardening rule must be auditable"})
					continue
				}
				pos := fset.Position(c.Pos())
				d := allowDirective{pos: c.Pos(), file: pos.Filename, rule: rule, reason: reason}
				// Trailing comment suppresses its own line; a standalone
				// directive line suppresses the next line.
				d.line = pos.Line
				idx.add(d)
				d.line = pos.Line + 1
				idx.add(d)
			}
		}
	}
	return idx, bad
}

func (ix allowIndex) add(d allowDirective) {
	byLine := ix[d.file]
	if byLine == nil {
		byLine = make(map[int][]allowDirective)
		ix[d.file] = byLine
	}
	byLine[d.line] = append(byLine[d.line], d)
}

// sanitizedIndex records the source lines carrying a //ciovet:sanitized
// directive. Unlike //ciovet:allow — which silences one diagnostic —
// sanitized declares a *value* trustworthy at its definition: the taint
// analysis treats assignments on a marked line (and the function whose
// declaration is marked) as producing validated values, so every
// downstream use is clean. The optional trailing text is a free-form
// justification kept in the source.
type sanitizedIndex map[string]map[int]bool

const sanitizedPrefix = "//ciovet:sanitized"

// buildSanitizedIndex scans comments for //ciovet:sanitized directives,
// marking the directive's own line and the following line (trailing and
// standalone placements, like //ciovet:allow).
func buildSanitizedIndex(fset *token.FileSet, files []*ast.File) sanitizedIndex {
	idx := make(sanitizedIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, sanitizedPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]bool)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = true
				byLine[pos.Line+1] = true
			}
		}
	}
	return idx
}

// covers reports whether pos sits on a sanitized-marked line.
func (ix sanitizedIndex) covers(fset *token.FileSet, pos token.Pos) bool {
	if ix == nil {
		return false
	}
	p := fset.Position(pos)
	return ix[p.Filename][p.Line]
}

// match returns the directive that suppresses a diagnostic for rule at
// pos, or nil. The rule "*" in a directive matches every rule.
func (ix allowIndex) match(fset *token.FileSet, pos token.Pos, rule string) *allowDirective {
	if ix == nil {
		return nil
	}
	p := fset.Position(pos)
	for i, d := range ix[p.Filename][p.Line] {
		if d.rule == rule || d.rule == "*" {
			return &ix[p.Filename][p.Line][i]
		}
	}
	return nil
}

// dead reports the well-formed directives that suppress nothing: those
// naming a rule that is not in the suite, and those naming a rule that
// ran (for "*", any rule) yet matched no finding. Either reads like an
// audited opt-out while the line it sits on is not opted out of anything.
func (ix allowIndex) dead(ran []*Analyzer, used map[token.Pos]bool) []Diagnostic {
	known := map[string]bool{"*": true}
	for _, a := range Suite() {
		known[a.Name] = true
	}
	didRun := map[string]bool{"*": len(ran) > 0}
	for _, a := range ran {
		didRun[a.Name] = true
	}
	seen := make(map[token.Pos]bool)
	var out []Diagnostic
	for _, byLine := range ix {
		for _, ds := range byLine {
			for _, d := range ds {
				if seen[d.pos] {
					continue // each directive is indexed on two lines
				}
				seen[d.pos] = true
				switch {
				case !known[d.rule]:
					out = append(out, Diagnostic{Pos: d.pos, Rule: "allow",
						Message: "ciovet:allow names unknown rule " + d.rule + ", so it suppresses nothing"})
				case didRun[d.rule] && !used[d.pos]:
					out = append(out, Diagnostic{Pos: d.pos, Rule: "allow",
						Message: "ciovet:allow " + d.rule + " suppresses nothing here; remove it or make it a plain comment"})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}
