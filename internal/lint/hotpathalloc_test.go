package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestHotPathAllocFixture(t *testing.T) {
	diags := linttest.Run(t, "testdata", lint.HotPathAlloc, "hotpathalloc/internal/engine")
	if len(diags) == 0 {
		t.Fatal("hotpathalloc produced no diagnostics on its true-positive fixture")
	}
}

func TestHotPathAllocScopedToEngineSched(t *testing.T) {
	diags := linttest.Run(t, "testdata", lint.HotPathAlloc, "hotpathalloc/internal/router")
	if len(diags) != 0 {
		t.Fatalf("hotpathalloc flagged a coordinator-side closure outside engine, sched and server: %v", diags)
	}
}

func TestHotPathAllocServerFixture(t *testing.T) {
	diags := linttest.Run(t, "testdata", lint.HotPathAlloc, "hotpathalloc/internal/server")
	if len(diags) != 1 {
		t.Fatalf("hotpathalloc produced %d diagnostics on the server fixture, want its one closure: %v", len(diags), diags)
	}
}
