package tokenizer

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestDeterministic(t *testing.T) {
	tk := New()
	a := tk.Encode("Should we recommend this document to this user?")
	b := tk.Encode("Should we recommend this document to this user?")
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic encoding")
		}
	}
}

func TestSharedPrefixEncodesIdentically(t *testing.T) {
	tk := New()
	p1 := tk.Encode("profile: reads systems papers. post: about databases")
	p2 := tk.Encode("profile: reads systems papers. post: about compilers")
	// Common text prefix ⇒ common token prefix.
	common := 0
	for common < len(p1) && common < len(p2) && p1[common] == p2[common] {
		common++
	}
	if common < len(p1)-4 {
		t.Fatalf("common prefix only %d of %d tokens", common, len(p1))
	}
	if common == len(p1) && common == len(p2) {
		t.Fatal("different texts encoded identically")
	}
}

func TestBOSPrepended(t *testing.T) {
	tk := New()
	toks := tk.Encode("hi")
	if len(toks) < 2 || toks[0] != tk.BOS {
		t.Fatalf("no BOS: %v", toks)
	}
	tk.BOS = 0
	if toks := tk.Encode("hi"); len(toks) != 1 {
		t.Fatalf("BOS=0 should omit it: %v", toks)
	}
}

func TestLongWordsSplit(t *testing.T) {
	pieces := Pieces("internationalization")
	if len(pieces) < 3 {
		t.Fatalf("long word not split: %v", pieces)
	}
	if strings.Join(pieces, "") != "internationalization" {
		t.Fatalf("pieces lose content: %v", pieces)
	}
}

func TestPunctuationSeparated(t *testing.T) {
	pieces := Pieces("Yes, or No?")
	want := []string{"Yes", ",", "or", "No", "?"}
	if len(pieces) != len(want) {
		t.Fatalf("pieces = %v, want %v", pieces, want)
	}
	for i := range want {
		if pieces[i] != want[i] {
			t.Fatalf("pieces = %v, want %v", pieces, want)
		}
	}
}

func TestCountMatchesEncode(t *testing.T) {
	tk := New()
	f := func(s string) bool {
		return tk.Count(s) == len(tk.Encode(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenIDsAvoidSpecialRange(t *testing.T) {
	f := func(s string) bool {
		if s == "" {
			return true
		}
		return TokenID(s) >= 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScalesRoughlyWithWords(t *testing.T) {
	tk := New()
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 100)
	n := tk.Count(text)
	if n < 900 || n > 1400 {
		t.Fatalf("token count %d for 900 words, want ~1:1.2 ratio", n)
	}
}

// FuzzTokenizer checks the tokenizer's contracts on arbitrary text: Count
// agrees with Encode, every piece ID stays out of the special-token range,
// and whitespace-joined text encodes as its parts do, one BOS in front.
func FuzzTokenizer(f *testing.F) {
	f.Add("Here is the user profile: reads systems papers.", "Should we recommend this post? Answer:")
	f.Add("", "")
	f.Add("  leading", "trailing  ")
	f.Add("antidisestablishmentarianism", "日本語のテキスト")
	f.Add("caf\xe9 \xe2\x82", "\x82\xff tail")
	tk := New()
	f.Fuzz(func(t *testing.T, a, b string) {
		ids := tk.Encode(a)
		if n := tk.Count(a); n != len(ids) {
			t.Fatalf("Count(%q) = %d, Encode gives %d IDs", a, n, len(ids))
		}
		if len(ids) == 0 || ids[0] != tk.BOS {
			t.Fatalf("Encode(%q) = %v does not start with the BOS", a, ids)
		}
		for i, id := range ids[1:] {
			if id < 256 {
				t.Fatalf("Encode(%q)[%d] = %d is in the special-token range", a, i+1, id)
			}
		}
		joined := tk.Encode(a + " " + b)
		want := append(tk.Encode(a), tk.Encode(b)[1:]...)
		if len(joined) != len(want) {
			t.Fatalf("Encode(%q + \" \" + %q) has %d IDs, the parts %d", a, b, len(joined), len(want))
		}
		for i := range want {
			if joined[i] != want[i] {
				t.Fatalf("Encode(%q + \" \" + %q)[%d] = %d, the parts give %d", a, b, i, joined[i], want[i])
			}
		}
	})
}

// refEncode, refPieces and refPieceID are the encoder as it stood before
// Encode, Count and Pieces shared one walk over the text's bytes, kept
// verbatim as the reference the walk must match byte for byte: token IDs
// key the prefix cache and the response scores.
func refEncode(t *Tokenizer, text string) []uint64 {
	var out []uint64
	if t.BOS != 0 {
		out = append(out, t.BOS)
	}
	for _, piece := range refPieces(text) {
		out = append(out, refPieceID(piece))
	}
	return out
}

func refPieces(text string) []string {
	var pieces []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		w := b.String()
		b.Reset()
		for len(w) > maxPieceLen {
			pieces = append(pieces, w[:maxPieceLen])
			w = w[maxPieceLen:]
		}
		pieces = append(pieces, w)
	}
	for _, r := range text {
		switch {
		case unicode.IsSpace(r):
			flush()
		case unicode.IsPunct(r) || unicode.IsSymbol(r):
			flush()
			pieces = append(pieces, string(r))
		default:
			b.WriteRune(r)
		}
	}
	flush()
	return pieces
}

func refPieceID(piece string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(piece); i++ {
		h ^= uint64(piece[i])
		h *= prime
	}
	// Keep IDs out of the special-token range [0, 256).
	if h < 256 {
		h += 256
	}
	return h
}

// servePrompt builds a prompt shaped like a served recommendation request:
// a profile of the given number of words drawn from a 4,096-word
// vocabulary of 2–9 lowercase letters, then a short post and the question.
func servePrompt(rng *rand.Rand, words int) string {
	vocab := make([]string, 4096)
	for i := range vocab {
		w := make([]byte, 2+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(w)
	}
	var b strings.Builder
	b.WriteString("user profile:")
	for i := 0; i < words; i++ {
		b.WriteByte(' ')
		b.WriteString(vocab[rng.Intn(len(vocab))])
	}
	b.WriteString(" post 7: a new paper on databases recommend? answer:")
	return b.String()
}

// FuzzEncodeMatchesReference checks that Encode, Count and Pieces agree
// with the reference encoder on arbitrary text, with and without a BOS.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add("é000é") // a cut inside a rune: the next piece continues the word
	f.Add("caf\xe9 \xe2\x82")
	f.Add("\ufffd is not \xff")
	f.Add("next\u0085line\u00a0no-break")
	f.Add("日本語のテキスト、長い文章です。")
	f.Add("abcdefghijklmnopqrst")
	f.Add(servePrompt(rand.New(rand.NewSource(1)), 2000))
	f.Fuzz(func(t *testing.T, text string) {
		for _, tk := range []*Tokenizer{New(), {}} {
			got, want := tk.Encode(text), refEncode(tk, text)
			if !slices.Equal(got, want) {
				t.Fatalf("BOS %d: Encode(%q) = %v, reference %v", tk.BOS, text, got, want)
			}
			if n := tk.Count(text); n != len(want) {
				t.Fatalf("BOS %d: Count(%q) = %d, reference encodes %d IDs", tk.BOS, text, n, len(want))
			}
		}
		if got, want := Pieces(text), refPieces(text); !slices.Equal(got, want) {
			t.Fatalf("Pieces(%q) = %q, reference %q", text, got, want)
		}
	})
}

// TestEncodeAllocs pins the walk's allocations on a served-size prompt:
// Encode allocates only the ID slice, and Count nothing.
func TestEncodeAllocs(t *testing.T) {
	tk := New()
	text := servePrompt(rand.New(rand.NewSource(1)), 2000)
	if n := testing.AllocsPerRun(20, func() { idSink = tk.Encode(text) }); n != 1 {
		t.Errorf("Encode: %v allocs per run, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { countSink = tk.Count(text) }); n != 0 {
		t.Errorf("Count: %v allocs per run, want 0", n)
	}
}

var (
	idSink    []uint64
	countSink int
)

// BenchmarkTokenizerEncode encodes served-size prompts (1,000–3,000-word
// profiles) and reports the cost per produced token.
func BenchmarkTokenizerEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, 16)
	tokens := 0
	tk := New()
	for i := range texts {
		texts[i] = servePrompt(rng, 1000+rng.Intn(2001))
		tokens += tk.Count(texts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			idSink = tk.Encode(text)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tokens), "ns/token")
}
