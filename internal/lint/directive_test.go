package lint

import "testing"

func TestParseAllow(t *testing.T) {
	cases := []struct {
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
	for _, c := range cases {
		if got := parseAllow(c.comment); got != c.want {
			t.Errorf("parseAllow(%q) = %q, want %q", c.comment, got, c.want)
		}
	}
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
