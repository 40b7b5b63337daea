// Package workload synthesizes the paper's two evaluation datasets
// (Table 1) and their Poisson arrival process (§7.1):
//
//   - Post recommendation: 20 users, user profiles of 11k–17k tokens
//     (normal, mean 14k, std 3k), 50 posts of 150 tokens per user. All 50
//     requests of a user share the profile as a prompt prefix (declared
//     as one sched.Prefix), so this dataset exercises frequent
//     prefix-cache reuse.
//   - Credit verification: 60 users, one request each, 40k–60k tokens of
//     credit history. This dataset exercises long inputs.
//
// Token IDs are deterministic pseudo-random streams: requests from the same
// user share their prefix tokens exactly (so content-addressed prefix
// caching works), and different users never collide.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/kvcache"
	"repro/internal/sched"
)

// templateTokens is the shared instruction preamble every request starts
// with ("You are a recommendation assistant …"); it is identical across
// users, giving even cross-user requests a small shared prefix.
const templateTokens = 32

// Dataset is a generated request population without arrival times.
type Dataset struct {
	// Name identifies the dataset ("post-recommendation", "credit-verification").
	Name string
	// Requests holds every request, grouped by user in submission order.
	Requests []*sched.Request
	// Users is the number of distinct users.
	Users int
	// RequestsPerUser is the per-user request count (1 for credit).
	RequestsPerUser int
	// MaxLen is the longest request in tokens.
	MaxLen int
}

// Clone returns a copy of the dataset whose request and Prefix structs
// are fresh but whose token storage (and allowed-token lists) is shared
// with the original. Tokens are immutable once generated, but runs mutate
// the wrapping structs — arrival stamps, memoized block-hash chains — so
// concurrent sweep cells must each run against their own clone; sharing
// the multi-megabyte token arrays keeps that cheap. Requests that share a
// Prefix in d share one fresh Prefix in the clone. A clone starts
// unhashed: it copies no memoized chain, so each run hashes its inputs
// itself, each distinct prefix once.
func (d *Dataset) Clone() *Dataset {
	c := *d
	c.Requests = make([]*sched.Request, len(d.Requests))
	prefixes := make(map[*sched.Prefix]*sched.Prefix)
	for i, r := range d.Requests {
		rc := *r
		rc.Chain, rc.HashBlockTokens = kvcache.Chain{}, 0
		if r.Prefix != nil {
			p, ok := prefixes[r.Prefix]
			if !ok {
				p = &sched.Prefix{Tokens: r.Prefix.Tokens}
				prefixes[r.Prefix] = p
			}
			rc.Prefix = p
		}
		c.Requests[i] = &rc
	}
	return &c
}

// TotalTokens sums the input lengths of all requests.
func (d *Dataset) TotalTokens() int64 {
	var n int64
	for _, r := range d.Requests {
		n += int64(r.Len())
	}
	return n
}

// MeanLen is the average request length in tokens.
func (d *Dataset) MeanLen() float64 {
	if len(d.Requests) == 0 {
		return 0
	}
	return float64(d.TotalTokens()) / float64(len(d.Requests))
}

// tokenStream fills out with a deterministic stream unique to (kind, user,
// item).
func tokenStream(out []uint64, kind, user, item int) {
	rng := rand.New(rand.NewSource(int64(kind)<<40 ^ int64(user)<<20 ^ int64(item)))
	for i := range out {
		out[i] = rng.Uint64()
	}
}

const (
	kindTemplate = iota + 1
	kindProfile
	kindPost
	kindCredit
)

// userPrefix returns a user's shared prompt prefix: the template followed
// by a plen-token profile streamed from (kind, user).
func userPrefix(template []uint64, plen, kind, user int) *sched.Prefix {
	toks := make([]uint64, len(template)+plen)
	copy(toks, template)
	tokenStream(toks[len(template):], kind, user, 0)
	return &sched.Prefix{Tokens: toks}
}

// withPost returns a fresh prompt: prefix's tokens followed by a
// postLen-token post streamed from (kind, user, item).
func withPost(prefix *sched.Prefix, postLen, kind, user, item int) []uint64 {
	n := len(prefix.Tokens)
	toks := make([]uint64, n+postLen)
	copy(toks, prefix.Tokens)
	tokenStream(toks[n:], kind, user, item)
	return toks
}

// PostRecommendationConfig parameterizes the post-recommendation dataset;
// zero values take the paper's Table-1 numbers.
type PostRecommendationConfig struct {
	Users        int     // default 20
	PostsPerUser int     // default 50
	PostLen      int     // default 150
	ProfileMean  float64 // default 14000
	ProfileStd   float64 // default 3000
	ProfileMin   int     // default 11000
	ProfileMax   int     // default 17000
	Seed         int64
}

func (c *PostRecommendationConfig) defaults() {
	if c.Users == 0 {
		c.Users = 20
	}
	if c.PostsPerUser == 0 {
		c.PostsPerUser = 50
	}
	if c.PostLen == 0 {
		c.PostLen = 150
	}
	if c.ProfileMean == 0 {
		c.ProfileMean = 14000
	}
	if c.ProfileStd == 0 {
		c.ProfileStd = 3000
	}
	if c.ProfileMin == 0 {
		c.ProfileMin = 11000
	}
	if c.ProfileMax == 0 {
		c.ProfileMax = 17000
	}
}

// PostRecommendation generates the post-recommendation dataset.
func PostRecommendation(cfg PostRecommendationConfig) *Dataset {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x1e3779b97f4a7c15))
	template := make([]uint64, templateTokens)
	tokenStream(template, kindTemplate, 0, 0)

	d := &Dataset{
		Name:            "post-recommendation",
		Users:           cfg.Users,
		RequestsPerUser: cfg.PostsPerUser,
	}
	var id int64
	for u := 0; u < cfg.Users; u++ {
		plen := int(rng.NormFloat64()*cfg.ProfileStd + cfg.ProfileMean)
		if plen < cfg.ProfileMin {
			plen = cfg.ProfileMin
		}
		if plen > cfg.ProfileMax {
			plen = cfg.ProfileMax
		}
		prefix := userPrefix(template, plen, kindProfile, u)
		for p := 0; p < cfg.PostsPerUser; p++ {
			id++
			r := &sched.Request{
				ID:            id,
				UserID:        u,
				Tokens:        withPost(prefix, cfg.PostLen, kindPost, u, p),
				Prefix:        prefix,
				AllowedTokens: []string{"Yes", "No"},
			}
			d.Requests = append(d.Requests, r)
			if r.Len() > d.MaxLen {
				d.MaxLen = r.Len()
			}
		}
	}
	return d
}

// CreditVerificationConfig parameterizes the credit-verification dataset;
// zero values take the paper's Table-1 numbers.
type CreditVerificationConfig struct {
	Users      int // default 60
	HistoryMin int // default 40000
	HistoryMax int // default 60000
	Seed       int64
}

func (c *CreditVerificationConfig) defaults() {
	if c.Users == 0 {
		c.Users = 60
	}
	if c.HistoryMin == 0 {
		c.HistoryMin = 40000
	}
	if c.HistoryMax == 0 {
		c.HistoryMax = 60000
	}
}

// CreditVerification generates the credit-verification dataset.
func CreditVerification(cfg CreditVerificationConfig) *Dataset {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7f4a7c159e3779b9))
	template := make([]uint64, templateTokens)
	tokenStream(template, kindTemplate, 0, 0)

	d := &Dataset{
		Name:            "credit-verification",
		Users:           cfg.Users,
		RequestsPerUser: 1,
	}
	for u := 0; u < cfg.Users; u++ {
		hlen := cfg.HistoryMin + rng.Intn(cfg.HistoryMax-cfg.HistoryMin+1)
		hist := make([]uint64, hlen)
		tokenStream(hist, kindCredit, u, 0)
		toks := make([]uint64, 0, templateTokens+hlen)
		toks = append(toks, template...)
		toks = append(toks, hist...)
		r := &sched.Request{
			ID:            int64(u + 1),
			UserID:        u,
			Tokens:        toks,
			AllowedTokens: []string{"Approve", "Deny"},
		}
		d.Requests = append(d.Requests, r)
		if r.Len() > d.MaxLen {
			d.MaxLen = r.Len()
		}
	}
	return d
}

// Arrival pairs a request with its arrival time.
type Arrival struct {
	Req  *sched.Request
	Time float64
}

// DefaultBurstSpan is the window (seconds) over which one user's burst of
// requests is issued by the upstream application (the recommender fans its
// 50 candidate posts out over a short window rather than in one packet).
// At high user rates the bursts of different users overlap, which is what
// exposes prefix-cache throttling in FCFS engines (Figure 9).
const DefaultBurstSpan = 10.0

// AssignPoissonArrivals stamps arrival times on a dataset with the paper's
// §7.1 arrival pattern: users arrive as a Poisson process, and each user's
// requests are issued over DefaultBurstSpan seconds. qps is the request
// rate, so the user rate is qps/RequestsPerUser. The returned slice is
// sorted by time, and each request's ArrivalTime field is set.
func AssignPoissonArrivals(d *Dataset, qps float64, seed int64) ([]Arrival, error) {
	return AssignPoissonArrivalsSpan(d, qps, DefaultBurstSpan, seed)
}

// AssignPoissonArrivalsSpan is AssignPoissonArrivals with an explicit
// burst span; span 0 makes each user's requests arrive simultaneously.
func AssignPoissonArrivalsSpan(d *Dataset, qps, span float64, seed int64) ([]Arrival, error) {
	if qps <= 0 {
		return nil, fmt.Errorf("workload: qps must be positive, got %v", qps)
	}
	if span < 0 {
		return nil, fmt.Errorf("workload: burst span must be non-negative, got %v", span)
	}
	userRate := qps / float64(d.RequestsPerUser)
	rng := rand.New(rand.NewSource(seed))
	userTime := make(map[int]float64, d.Users)
	userSeq := make(map[int]int, d.Users)
	t := 0.0
	// Users arrive in their generation order.
	for _, r := range d.Requests {
		if _, ok := userTime[r.UserID]; !ok {
			t += rng.ExpFloat64() / userRate
			userTime[r.UserID] = t
		}
	}
	gap := 0.0
	if d.RequestsPerUser > 1 {
		gap = span / float64(d.RequestsPerUser-1)
	}
	out := make([]Arrival, len(d.Requests))
	for i, r := range d.Requests {
		seq := userSeq[r.UserID]
		userSeq[r.UserID] = seq + 1
		r.ArrivalTime = userTime[r.UserID] + float64(seq)*gap
		out[i] = Arrival{Req: r, Time: r.ArrivalTime}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}
