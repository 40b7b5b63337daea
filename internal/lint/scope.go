package lint

import "strings"

// Package-scope policy: which parts of the tree each invariant governs.
// Matching is by the path tail after "internal/" (or "cmd/"), so the
// rules apply identically to the real module ("repro/internal/sim") and
// to linttest fixture modules ("fixmod/internal/sim").

// DeterministicPackages is the deterministic core: every package whose
// execution must be byte-identical across serial, parallel and sharded
// runs. simdeterminism bans wall clocks, global math/rand and map
// iteration here; hotpathalloc bans container/heap here.
//
// internal/server and internal/experiments are deliberately outside the
// set: they are the wall-clock side (HTTP frontend, sweep harness
// timing) and may observe real time freely.
var DeterministicPackages = []string{
	"autoscale", "chaos", "engine", "fleet", "kvcache", "router",
	"sched", "sim", "timeseries", "trace",
}

// HotPathPackages are the packages whose event-scheduling call sites
// must stay on the zero-alloc AtFunc/AfterFunc fast path (the PR 5
// closure-boxing regression vector): the engines and schedulers, and the
// HTTP frontend, which steps the simulator on every served request.
var HotPathPackages = []string{"engine", "sched", "server"}

// ExportPackages are the export/bench paths whose emitted artifacts are
// under byte-identity contracts (sweep JSON, trace export, time-series
// export, metrics text format), plus every command under cmd/.
var ExportPackages = []string{"experiments", "metrics", "timeseries", "trace"}

// HeapAllowedPackages may import container/heap despite the value-heap
// discipline. Empty today: the sim event heap and the sched indexed heap
// are both value-based precisely to avoid interface boxing per
// operation, and no package has earned an exemption back.
var HeapAllowedPackages []string

// hasPathTail reports whether path's tail after prefix is exactly name
// (or name followed by a subdirectory).
func hasPathTail(path, prefix, name string) bool {
	path = canonicalPath(path)
	needle := prefix + name
	i := strings.Index(path, needle)
	for i >= 0 {
		// The match must start at a path-element boundary...
		if i == 0 || path[i-1] == '/' {
			// ...and end at one.
			rest := path[i+len(needle):]
			if rest == "" || rest[0] == '/' {
				return true
			}
		}
		j := strings.Index(path[i+1:], needle)
		if j < 0 {
			return false
		}
		i += 1 + j
	}
	return false
}

// isInternalPkg reports whether path is the package internal/<name> (or
// a subpackage of it) in any module.
func isInternalPkg(path, name string) bool {
	return hasPathTail(path, "internal/", name)
}

func inSet(path string, set []string) bool {
	for _, name := range set {
		if isInternalPkg(path, name) {
			return true
		}
	}
	return false
}

// InDeterministicSet reports whether path belongs to the deterministic
// core.
func InDeterministicSet(path string) bool { return inSet(path, DeterministicPackages) }

// InHotPath reports whether path is a scheduling hot-path package.
func InHotPath(path string) bool { return inSet(path, HotPathPackages) }

// InExportPath reports whether path is an export/bench package or a
// command.
func InExportPath(path string) bool {
	p := canonicalPath(path)
	return inSet(path, ExportPackages) || strings.HasPrefix(p, "cmd/") || strings.Contains(p, "/cmd/")
}

// InRingbuf reports whether path is internal/ringbuf, the one package
// sanctioned to advance a slice over its own backing array.
func InRingbuf(path string) bool { return isInternalPkg(path, "ringbuf") }

// IsSimPackage reports whether path is the sim kernel package itself.
func IsSimPackage(path string) bool { return isInternalPkg(path, "sim") }

// HeapImportAllowed reports whether path may import container/heap.
func HeapImportAllowed(path string) bool { return inSet(path, HeapAllowedPackages) }
