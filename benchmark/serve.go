package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	prefillonly "repro"
	"repro/internal/graph"
	"repro/internal/tokenizer"
)

// serve-http sizes; constants, like the fleet workloads'.
//
// The load is closed-loop: nproc senders on one keep-alive connection
// each, every one sending its next request as soon as its previous one is
// answered, so the cores stay busy with the server's work. An open-loop
// Poisson load of 200 req/s left them idle between requests: its CPU and
// latency then hung on what waking up costs on a shared VM, moved by
// 10–25 % from run to run, and followed no reference timing (measure.go).
// Kept busy, the server slows with the neighbours as the fleet workloads
// do: over 20 runs of 20 s in one process on a busy host, the scaled
// throughput, CPU per request and latency spread 0.05–0.06 where the
// unscaled ones spread 0.14–0.18.
const (
	serveInstances = 4
	serveSpeedup   = 10_000
	// servePool is how many distinct requests the inputs hold; the load
	// generator sends them in order and starts over at the end.
	servePool       = 4096
	serveUsers      = 256 // Zipf(1.4)-popular users
	serveZipf       = 1.4
	profileWordsMin = 1000
	profileWordsMax = 3000
	postWords       = 30
	vocabWords      = 4096
	// The load runs in segments of --seconds / serveSegments, each timed
	// between two reference timings; the first is an untimed warm-up.
	serveSegments = 10
	tracedShare   = 0.25 // the traced segment's length, as a share of --seconds
	replayPrompts = 200  // prompts the tokenizer and hash replays use
	reqIDHeader   = "X-Bench-Request"
)

// serveInputs are the generated requests: each user's fixed profile and,
// per request, a unique post.
type serveInputs struct {
	profiles []string // "user profile: w w w ..."
	reqs     []serveReq
	maxLen   int // longest prompt in tokens
	tok      *tokenizer.Tokenizer
	vocab    []string
	rng      *rand.Rand
}

type serveReq struct {
	user   int
	post   string
	tokens int // the usage.prompt_tokens the response must report
}

func newServeInputs(seed int64, scale float64) *serveInputs {
	rng := rand.New(rand.NewSource(seed))
	users := scaled(serveUsers, scale)
	in := &serveInputs{tok: tokenizer.New(), rng: rng}
	in.vocab = make([]string, vocabWords)
	for i := range in.vocab {
		w := make([]byte, 2+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		in.vocab[i] = string(w)
	}
	// Profile lengths are spread over [lo, hi] by popularity rank, not
	// drawn: the most popular user alone gets about a third of the
	// requests, so a drawn length would move the work per request by a
	// fifth from seed to seed. The seed picks the words.
	lo, hi := scaled(profileWordsMin, scale), scaled(profileWordsMax, scale)
	const phi = 0.6180339887498949 // golden-ratio steps spread ranks evenly
	for u := 0; u < users; u++ {
		_, frac := math.Modf(0.5 + float64(u)*phi)
		in.profiles = append(in.profiles, "user profile: "+in.words(lo+int(frac*float64(hi-lo))))
	}
	zipf := rand.NewZipf(rng, serveZipf, 1, uint64(users-1))
	for i := 0; i < scaled(servePool, scale); i++ {
		r := serveReq{user: int(zipf.Uint64()),
			post: "post " + strconv.Itoa(i) + ": " + in.words(postWords) + " recommend? answer:"}
		r.tokens = in.tok.Count(in.prompt(r))
		in.maxLen = max(in.maxLen, r.tokens)
		in.reqs = append(in.reqs, r)
	}
	return in
}

func (in *serveInputs) words(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(in.vocab[in.rng.Intn(len(in.vocab))])
	}
	return b.String()
}

func (in *serveInputs) prompt(r serveReq) string { return in.profiles[r.user] + " " + r.post }

func (in *serveInputs) body(r serveReq) []byte {
	b := make([]byte, 0, len(in.profiles[r.user])+len(r.post)+96)
	b = append(b, `{"prompt":"`...)
	b = append(b, in.profiles[r.user]...)
	b = append(b, ' ')
	b = append(b, r.post...)
	b = append(b, `","max_tokens":1,"allowed_tokens":["Yes","No"],"user":"u`...)
	b = strconv.AppendInt(b, int64(r.user), 10)
	return append(b, `"}`...)
}

// server is a prefillonly.Server behind a loopback httptest listener.
type server struct {
	srv *prefillonly.Server
	ts  *httptest.Server
	hs  *handlerSpans
}

func startServer(maxLen int) (*server, error) {
	srv, err := prefillonly.NewServer(prefillonly.ServerConfig{
		Instances:     serveInstances,
		RoutingPolicy: "affinity",
		Speedup:       serveSpeedup,
		MaxInputLen:   (maxLen/1000 + 1) * 1000,
	})
	if err != nil {
		return nil, err
	}
	hs := &handlerSpans{next: srv.Handler()}
	return &server{srv: srv, ts: httptest.NewServer(hs), hs: hs}, nil
}

func (s *server) close() {
	s.ts.Close()
	s.srv.Close()
}

// handlerSpans wraps the server's handler. While a span log is set, it
// records each request's handler span under the request-ID header the
// load generator sends, which links it to the client's round trip.
type handlerSpans struct {
	next http.Handler
	log  atomic.Pointer[spans]
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.log.Load()
	if sp == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := sp.since()
	h.next.ServeHTTP(w, r)
	id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	sp.add(span{name: "server handler", tid: tidHandler, start: t0, end: sp.since(), req: id})
}

// outcome is one request as the client saw it.
type outcome struct {
	id     int64         // the request's number, sent in reqIDHeader
	req    int           // its index in the inputs' pool
	lat    time.Duration // send to answer
	failed bool          // transport error or non-200 status
	simLat float64       // the response's sim_latency_seconds
	pass   graph.PassSpec
}

// segment is one stretch of load.
type segment struct {
	out       []outcome
	wall      time.Duration // start to last answer
	completed int
	err       error // invalid responses
}

func (s *segment) phase(name string) phase {
	return phase{Name: name, Offered: len(s.out), Completed: s.completed, Failed: len(s.out) - s.completed}
}

// loadgen sends the inputs' requests closed-loop: workers senders on one
// keep-alive connection each, every one sending its next request as soon
// as its previous one is answered. Request number n (from 1) is the
// pool's (n-1) mod its size.
type loadgen struct {
	client  *http.Client
	url     string
	workers int
	in      *serveInputs
	sent    atomic.Int64
}

// run sends for d, waits for the answers in flight, and checks every
// answer; a sender stops at its first invalid one. With sp set it records
// each client round trip.
func (g *loadgen) run(d time.Duration, sp *spans) *segment {
	outs := make([][]outcome, g.workers)
	errs := make([]error, g.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range g.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				id := g.sent.Add(1)
				i := int((id - 1) % int64(len(g.in.reqs)))
				var t0 time.Duration
				if sp != nil {
					t0 = sp.since()
				}
				sent := time.Now()
				o, err := send(g.client, g.url, g.in, g.in.reqs[i], id)
				o.id, o.req, o.lat = id, i, time.Since(sent)
				if sp != nil {
					sp.add(span{name: "client round trip", tid: tidClient + w, start: t0, end: sp.since(), req: id})
				}
				outs[w] = append(outs[w], o)
				if err != nil {
					errs[w] = fmt.Errorf("request %d: %w", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := &segment{out: slices.Concat(outs...), wall: time.Since(start), err: errors.Join(errs...)}
	for _, o := range s.out {
		if !o.failed {
			s.completed++
		}
	}
	return s
}

// completion is the part of a completion response the checks read.
type completion struct {
	Choices []struct {
		Text        string             `json:"text"`
		TokenScores map[string]float64 `json:"token_scores"`
	} `json:"choices"`
	Usage struct {
		PromptTokens int `json:"prompt_tokens"`
	} `json:"usage"`
	SimLatencySeconds float64 `json:"sim_latency_seconds"`
	CachedTokens      int     `json:"cached_tokens"`
}

// send issues one request. A transport error or a status other than 200
// is a failed request; a 200 whose body breaks the API's contract is an
// error.
func send(client *http.Client, url string, in *serveInputs, r serveReq, id int64) (outcome, error) {
	var o outcome
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(in.body(r)))
	if err != nil {
		return o, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	resp, err := client.Do(req)
	if err != nil {
		o.failed = true
		return o, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		o.failed = true
		return o, nil
	}
	var c completion
	if err := json.Unmarshal(data, &c); err != nil {
		return o, fmt.Errorf("decoding response: %w", err)
	}
	if len(c.Choices) != 1 {
		return o, fmt.Errorf("%d choices, want 1", len(c.Choices))
	}
	ch := c.Choices[0]
	if ch.Text != "Yes" && ch.Text != "No" {
		return o, fmt.Errorf("text %q is not an allowed token", ch.Text)
	}
	sum := 0.0
	for tok, p := range ch.TokenScores {
		if tok != "Yes" && tok != "No" {
			return o, fmt.Errorf("score for disallowed token %q", tok)
		}
		sum += p
	}
	if len(ch.TokenScores) != 2 || math.Abs(sum-1) > 1e-9 {
		return o, fmt.Errorf("token_scores %v do not sum to 1 over Yes and No", ch.TokenScores)
	}
	if c.Usage.PromptTokens != r.tokens {
		return o, fmt.Errorf("prompt_tokens %d, tokenizer counts %d", c.Usage.PromptTokens, r.tokens)
	}
	if c.CachedTokens < 0 || c.CachedTokens > r.tokens || c.SimLatencySeconds <= 0 {
		return o, fmt.Errorf("cached_tokens %d of %d, sim latency %g", c.CachedTokens, r.tokens, c.SimLatencySeconds)
	}
	o.simLat = c.SimLatencySeconds
	o.pass = graph.PassSpec{Total: c.Usage.PromptTokens, Cached: c.CachedTokens}
	return o, nil
}

func serveHTTP(cfg runConfig) (*report, error) {
	in := newServeInputs(cfg.seed, cfg.scale)
	setup, err := setupSeconds(func() (func(), error) {
		s, err := startServer(in.maxLen)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return nil, err
	}

	workers := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	defer transport.CloseIdleConnections()

	baseline := liveHeap()
	s, err := startServer(in.maxLen)
	if err != nil {
		return nil, err
	}
	defer s.close()
	g := &loadgen{client: &http.Client{Transport: transport}, url: s.ts.URL + "/v1/completions", workers: workers, in: in}
	segLen := time.Duration(cfg.seconds / serveSegments * float64(time.Second))
	var lat []float64 // every timed request's latency, ms
	warm, timed, err := repeat(cfg.seconds, func(warm bool) (repetition, error) {
		// The server holds little between requests; its memory is the
		// in-flight requests', so take the live heap averaged over the
		// segment's many GC cycles.
		watch := watchHeap(false)
		c0 := cpuTime()
		seg := g.run(segLen, nil)
		r := repetition{wall: seg.wall, cpu: cpuTime() - c0,
			offered: len(seg.out), completed: seg.completed, failed: len(seg.out) - seg.completed}
		_, mean := watch.result()
		r.heapMiB = above(mean, baseline)
		if seg.err != nil {
			return r, seg.err
		}
		if seg.completed == 0 {
			return r, errors.New("no request completed")
		}
		var segLat []float64
		for _, o := range seg.out {
			if !o.failed {
				segLat = append(segLat, ms(o.lat))
			}
		}
		r.latMs = median(segLat)
		if !warm {
			lat = append(lat, segLat...)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	all := phase{Name: "timed"}
	var heap []float64
	for _, r := range timed {
		all.add(r)
		heap = append(heap, r.heapMiB)
	}
	out := &report{phases: []phase{warm.phase("warmup"), all}, raw: rawOf(timed)}
	if !cfg.trace {
		out.metrics = endToEndMetrics(setup, timed, heap)
		return out, nil
	}

	sp := newSpans()
	s.hs.log.Store(sp)
	var traced *segment
	var tcpu time.Duration
	var before, after runtime.MemStats
	sm := newSpeedometer()
	layerCPU, err := profiled(func() error {
		runtime.ReadMemStats(&before)
		c0 := cpuTime()
		end := sp.begin("traced segment")
		traced = g.run(time.Duration(cfg.seconds*tracedShare*float64(time.Second)), sp)
		end()
		tcpu = cpuTime() - c0
		runtime.ReadMemStats(&after)
		return traced.err
	})
	s.hs.log.Store(nil)
	if err != nil {
		return nil, err
	}
	if traced.completed == 0 {
		return nil, errors.New("no traced request completed")
	}
	tr := repetition{cpu: tcpu, completed: traced.completed, scale: sm.scale()}
	out.phases = append(out.phases, traced.phase("traced"))
	m := layerMetrics()
	addLayerCPU(m, layerCPU)
	addMemStats(m, &before, &after, traced.completed)
	m["trace.overhead_frac"] = cpuPerReq(tr)/medianCPUPerReq(timed) - 1
	m["loadgen.lat_p99_ms"] = quantile(lat, 0.99)

	handler := map[int64]time.Duration{}
	sp.mu.Lock()
	for _, x := range sp.list {
		if x.tid == tidHandler {
			handler[x.req] = x.end - x.start
		}
	}
	sp.mu.Unlock()
	var hdl, nonsim, net, simLat []float64
	var passes []graph.PassSpec
	var texts []string
	for _, o := range traced.out {
		if o.failed {
			continue
		}
		simLat = append(simLat, o.simLat)
		passes = append(passes, o.pass)
		if h, ok := handler[o.id]; ok {
			hdl = append(hdl, ms(h))
			nonsim = append(nonsim, ms(h)-o.simLat/serveSpeedup*1e3)
			net = append(net, ms(o.lat-h))
		}
		if len(texts) < replayPrompts {
			texts = append(texts, in.prompt(in.reqs[o.req]))
		}
	}
	m["server.handler_p50_ms"] = median(hdl)
	m["server.handler_p99_ms"] = quantile(hdl, 0.99)
	m["server.nonsim_p50_ms"] = median(nonsim)
	m["loadgen.net_p50_ms"] = median(net)
	m["sim.jct_p50_s"] = median(simLat)
	m["sim.jct_p99_s"] = quantile(simLat, 0.99)

	st := s.srv.Stats()
	loads := make([]int64, len(st.Instances))
	for i, x := range st.Instances {
		loads[i] = x.RoutedRequests
	}
	m["router.balance_ratio"] = balance(loads)
	for _, a := range st.Admission {
		m["router.rejects"] += float64(a.Rejected)
	}
	lookup, hit := cacheTokens(s.srv.Handler())
	if lookup > 0 {
		m["kvcache.hit_token_share"] = hit / lookup
	}

	var inputs [][]uint64
	m["tokenizer.encode_ns_per_token"], inputs = replayEncode(in.tok, texts, sp)
	m["kvcache.hash_ns_per_token"] = replayHash(inputs, sp)
	if m["graph.estimate_ns_per_call"], err = replayEstimate(passes, sp); err != nil {
		return nil, err
	}
	out.metrics, out.spans = m, sp
	return out, nil
}

// cacheTokens sums the prefix-cache lookup and hit token counters over
// the instances, from the server's Prometheus endpoint.
func cacheTokens(h http.Handler) (lookup, hit float64) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		end, sep := strings.IndexAny(line, "{ "), strings.LastIndexByte(line, ' ')
		if end < 0 || sep < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sep+1:], 64)
		if err != nil {
			continue
		}
		switch line[:end] {
		case "prefill_cache_lookup_tokens_total":
			lookup += v
		case "prefill_cache_hit_tokens_total":
			hit += v
		}
	}
	return lookup, hit
}

// replayEncode is tokenizer.Encode's cost per produced token; it also
// returns the encodings, for the hash replay.
func replayEncode(tok *tokenizer.Tokenizer, texts []string, sp *spans) (float64, [][]uint64) {
	defer sp.begin("replay tokenizer.Encode")()
	enc := make([][]uint64, len(texts))
	n := 0
	for i, t := range texts {
		enc[i] = tok.Encode(t)
		n += len(enc[i])
	}
	return nsPer(n, func() {
		for _, t := range texts {
			hashSink = tok.Encode(t)
		}
	}), enc
}
