package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	s := Summarize(xs)
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if got := Percentile(s, 0.5); got != 5 {
		t.Fatalf("p50 of {0,10} = %v, want 5", got)
	}
	if got := Percentile(s, 0); got != 0 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(s, 1); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestP99DominatesMean(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.P99 <= s.Mean {
		t.Fatalf("p99 %v <= mean %v", s.P99, s.Mean)
	}
}

func TestCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	cdf := CDF(xs, 50)
	if len(cdf) != 50 {
		t.Fatalf("cdf points = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
			t.Fatalf("cdf not monotone at %d", i)
		}
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Fatalf("cdf does not reach 1: %v", cdf[len(cdf)-1])
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{11, 9, 7, 5, 3}
	r, _ = Pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance accepted")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		q1 := math.Mod(math.Abs(p1), 1)
		q2 := math.Mod(math.Abs(p2), 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1 := Percentile(xs, q1)
		v2 := Percentile(xs, q2)
		return v1 <= v2 && v1 >= xs[0] && v2 <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
