package lint

import (
	"strings"
	"testing"
)

// allowCases are parseAllow's table: each comment and the analyzer name
// it must yield ("" for none).
var allowCases = []struct {
	comment string
	want    string
}{
	{"//prefill:allow(simdeterminism): profiling only", "simdeterminism"},
	{"//prefill:allow(sliceretain): x", "sliceretain"},
	// Malformed directives must never suppress.
	{"//prefill:allow(simdeterminism)", ""},     // no reason
	{"//prefill:allow(simdeterminism):", ""},    // empty reason
	{"//prefill:allow(simdeterminism):   ", ""}, // blank reason
	{"//prefill:allow(): because", ""},          // no analyzer
	{"//prefill:allow simdeterminism: x", ""},   // no parens
	{"// prefill:allow(simdeterminism): x", ""}, // not a directive comment
	{"// ordinary comment", ""},
}

func TestParseAllow(t *testing.T) {
	for _, c := range allowCases {
		if got := parseAllow(c.comment); got != c.want {
			t.Errorf("parseAllow(%q) = %q, want %q", c.comment, got, c.want)
		}
	}
}

// FuzzParseAllow checks the allow-directive parser on any comment text.
// A name it returns must be the whole directive's: the text starts with
// //prefill:allow(name): followed by a non-blank reason, and the name
// holds no ")". Conversely, a directive built from such a name and reason
// parses back to the name.
func FuzzParseAllow(f *testing.F) {
	for _, c := range allowCases {
		f.Add(c.comment, c.want, " reason")
	}
	f.Fuzz(func(t *testing.T, text, name, reason string) {
		if n := parseAllow(text); n != "" {
			rest, ok := strings.CutPrefix(text, "//prefill:allow("+n+"):")
			if !ok || strings.TrimSpace(rest) == "" || strings.Contains(n, ")") {
				t.Fatalf("parseAllow(%q) = %q, which is not a well-formed directive's name", text, n)
			}
		}
		if name == "" || strings.Contains(name, ")") || strings.TrimSpace(reason) == "" {
			return
		}
		directive := "//prefill:allow(" + name + "):" + reason
		if got := parseAllow(directive); got != name {
			t.Fatalf("parseAllow(%q) = %q, want %q", directive, got, name)
		}
	})
}

func TestScopeMatching(t *testing.T) {
	cases := []struct {
		path string
		fn   func(string) bool
		want bool
	}{
		{"repro/internal/sim", InDeterministicSet, true},
		{"repro/internal/sim [repro/internal/sim.test]", InDeterministicSet, true},
		{"fixmod/internal/sched", InDeterministicSet, true},
		{"repro/internal/sim.test", InDeterministicSet, false},
		{"repro/internal/simulator", InDeterministicSet, false},
		{"repro/internal/server", InDeterministicSet, false},
		{"repro/internal/experiments", InDeterministicSet, false},
		{"repro/internal/ringbuf", InRingbuf, true},
		{"repro/internal/ringbuf", InDeterministicSet, false},
		{"repro/internal/engine", InHotPath, true},
		{"repro/internal/sched", InHotPath, true},
		{"repro/internal/server", InHotPath, true},
		{"repro/internal/router", InHotPath, false},
		{"repro/internal/sim", IsSimPackage, true},
		{"repro/internal/simulator", IsSimPackage, false},
		{"repro/internal/experiments", InExportPath, true},
		{"repro/internal/trace", InExportPath, true},
		{"repro/cmd/prefillbench", InExportPath, true},
		{"cmd/prefillbench", InExportPath, true},
		{"repro/internal/server", InExportPath, false},
		{"repro/internal/sim", HeapImportAllowed, false},
	}
	for _, c := range cases {
		if got := c.fn(c.path); got != c.want {
			t.Errorf("scope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
