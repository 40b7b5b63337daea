package tokenizer

import (
	"strings"
	"testing"
	"testing/quick"
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
