package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepOracles is the determinism oracle over the sweep table: every
// extension sweep's rows at parallel 1 on the serial kernel must be
// byte-identical across the cell executor's workers, the event kernel's
// shards, and both axes composed. Parallelism and sharding may change the
// wall clock, never the output.
func TestSweepOracles(t *testing.T) {
	var sweeps []string
	for _, e := range table {
		if !isSweep(e) {
			continue
		}
		sweeps = append(sweeps, e.name)
		t.Run(e.name, func(t *testing.T) {
			want := sweepRows(t, e, 1, 1)
			for _, p := range []struct{ parallel, shards int }{{4, 1}, {1, 2}, {2, 4}, {2, 8}} {
				if got := sweepRows(t, e, p.parallel, p.shards); got != want {
					t.Errorf("parallel %d, shards %d: rows diverge from the serial run's:\nserial: %s\ngot:    %s",
						p.parallel, p.shards, want, got)
				}
			}
		})
	}
	if got, want := strings.Join(sweeps, " "), "routing autoscale slo chaos"; got != want {
		t.Errorf("sweep table holds sweeps %q, want %q", got, want)
	}
}

// sweepRows runs a sweep at seed 1, -small, on one (parallel, shards)
// point and returns its rows as JSON.
func sweepRows(t *testing.T, e experiment, parallel, shards int) string {
	t.Helper()
	rows, _, err := e.rows(options{seed: 1, small: true, parallel: parallel, shards: shards})
	if err != nil {
		t.Fatalf("parallel %d, shards %d: %v", parallel, shards, err)
	}
	buf, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestUnsupportedFlagsFail checks that an experiment rejects a flag it
// does not honour instead of silently dropping it.
func TestUnsupportedFlagsFail(t *testing.T) {
	for _, tc := range []struct {
		exp string
		o   options
	}{
		{"fig6", options{shards: 1, jsonPath: "x"}},
		{"kernel", options{shards: 1, compare: true}},
		{"table2", options{shards: 1, compareUnsharded: true}},
		{"fig6", options{shards: 2}},
		{"chaos", options{shards: 1, tracePath: "t"}},
		{"all", options{shards: 1, tracePath: "t"}},
		{"all", options{shards: 1, timeseriesPath: "t"}},
		{"table1", options{shards: 0}},
		{"nosuch", options{shards: 1}},
	} {
		if err := run(tc.exp, tc.o); err == nil {
			t.Errorf("-exp %s accepted %+v", tc.exp, tc.o)
		}
	}
}

// TestProfiled checks -cpuprofile's wrapper: it writes a gzip-compressed
// profile around the run and returns the run's error, and a profile it
// cannot create fails before the run starts.
func TestProfiled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	boom := errors.New("boom")
	if err := profiled(path, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("the run's error came back as %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte{0x1f, 0x8b}) {
		t.Fatalf("profile starts % x, want gzip's magic 1f 8b", buf[:min(len(buf), 4)])
	}
	ran := false
	err = profiled(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), func() error { ran = true; return nil })
	if err == nil || ran {
		t.Fatalf("an uncreatable profile returned %v and ran the experiment: %v", err, ran)
	}
}
