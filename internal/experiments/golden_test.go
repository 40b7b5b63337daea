package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenCase is one paper artifact pinned byte-for-byte under testdata/.
type goldenCase struct {
	file string
	run  func() (any, error)
}

// paperGoldens are the §7 reproduction runs whose rows are committed as
// golden JSON: Figure 6's two scaled-down L4 panels (all five engines over
// the QPS grid), Figure 8's and Figure 9's H100 throughput studies (the
// chunked, PP and TP engines on H100) and Figure 11's λ sweep. The shape
// tests elsewhere accept wide ranges; these catch any change to a single
// reproduced number.
func paperGoldens() []goldenCase {
	panel := func(kind DatasetKind) func() (any, error) {
		return func() (any, error) {
			sc, err := ScenarioByName("L4")
			if err != nil {
				return nil, err
			}
			ds := SmallDataset(kind, 1)
			p, _, err := QPSLatencyOn(sc, ds.Name+" (small)", ds, nil, 1, 2)
			return p, err
		}
	}
	return []goldenCase{
		{"fig6_L4_post_small.json", panel(PostRecommendation)},
		{"fig6_L4_credit_small.json", panel(CreditVerification)},
		{"fig8.json", func() (any, error) {
			rows, _, err := Figure8Parallel(1, 2)
			return rows, err
		}},
		{"fig9.json", func() (any, error) {
			points, _, err := Figure9Parallel(1, 2)
			return points, err
		}},
		{"fig11.json", func() (any, error) {
			curves, _, err := Figure11Parallel(1, 2)
			return curves, err
		}},
	}
}

func marshalGolden(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func TestPaperGoldens(t *testing.T) {
	for _, gc := range paperGoldens() {
		gc := gc
		t.Run(gc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", gc.file))
			if err != nil {
				t.Fatal(err)
			}
			v, err := gc.run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := marshalGolden(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: rows differ from the committed golden (%d vs %d bytes)", gc.file, len(got), len(want))
			}
		})
	}
}
