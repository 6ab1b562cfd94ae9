package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"confio/internal/analysis"
)

// TestAllowDirectives exercises the //ciovet:allow machinery end to end on
// the allowdir corpus: malformed directives become diagnostics, directives
// naming the wrong rule suppress nothing, directives naming an unknown
// rule or suppressing nothing are diagnostics, and well-formed (including
// wildcard) directives move findings into the suppressed set with their
// reasons preserved.
func TestAllowDirectives(t *testing.T) {
	pkg, err := analysis.LoadTestdata(filepath.Join("testdata", "src"), "allowdir")
	if err != nil {
		t.Fatalf("loading allowdir corpus: %v", err)
	}
	res, err := analysis.Run(pkg, []*analysis.Analyzer{analysis.HostTaintAnalyzer})
	if err != nil {
		t.Fatalf("running hosttaint on allowdir: %v", err)
	}

	line := func(d analysis.Diagnostic) int { return pkg.Fset.Position(d.Pos).Line }

	var allowDiags, taintDiags []analysis.Diagnostic
	for _, d := range res.Diagnostics {
		switch d.Rule {
		case "allow":
			allowDiags = append(allowDiags, d)
		case "hosttaint":
			taintDiags = append(taintDiags, d)
		default:
			t.Errorf("unexpected rule %q: %s", d.Rule, d.Message)
		}
	}

	// Two malformed directives (one missing the rule, one missing the
	// reason), then two dead ones (an unknown rule, one suppressing
	// nothing).
	wantAllow := []string{"missing a rule name", "needs a reason", "unknown rule maskidx", "hosttaint suppresses nothing"}
	if len(allowDiags) != len(wantAllow) {
		t.Fatalf("got %d allow diagnostics, want %d: %v", len(allowDiags), len(wantAllow), allowDiags)
	}
	for i, want := range wantAllow {
		if !strings.Contains(allowDiags[i].Message, want) {
			t.Errorf("allow diagnostic %d = %q, want %q", i, allowDiags[i].Message, want)
		}
	}

	// Malformed, wrong-rule, or unknown-rule directives must not suppress:
	// the hosttaint finding in MissingRule, MissingReason, WrongRule, and
	// UnknownRule still fires.
	if len(taintDiags) != 4 {
		t.Fatalf("got %d hosttaint diagnostics, want 4 (MissingRule, MissingReason, WrongRule, UnknownRule): %v",
			len(taintDiags), taintDiags)
	}

	// The exact and wildcard directives suppress, with reasons on record.
	if len(res.Suppressed) != 2 {
		t.Fatalf("got %d suppressions, want 2 (Suppressed, Wildcard): %v",
			len(res.Suppressed), res.Suppressed)
	}
	for _, s := range res.Suppressed {
		if s.Rule != "hosttaint" {
			t.Errorf("suppression at line %d has rule %q, want hosttaint", line(s.Diagnostic), s.Rule)
		}
		if s.Reason == "" {
			t.Errorf("suppression at line %d lost its reason", line(s.Diagnostic))
		}
	}
}
