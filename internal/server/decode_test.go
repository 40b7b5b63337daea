package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// decodeReference is the reference decoder: encoding/json's first value
// of r, as the completions handler decoded bodies before decodeCompletion.
func decodeReference(r io.Reader) (CompletionRequest, error) {
	var req CompletionRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

// benchBody is a request shaped like the serve-http benchmark's: a user
// profile of 2,000 words, a post and the Yes/No allowed tokens, ~13 KB.
func benchBody() []byte {
	rng := rand.New(rand.NewSource(1))
	word := func(b []byte) []byte {
		for n := 2 + rng.Intn(8); n > 0; n-- {
			b = append(b, byte('a'+rng.Intn(26)))
		}
		return b
	}
	b := []byte(`{"prompt":"user profile:`)
	for i := 0; i < 2000; i++ {
		b = word(append(b, ' '))
	}
	b = append(b, " post 17:"...)
	for i := 0; i < 30; i++ {
		b = word(append(b, ' '))
	}
	return append(b, ` recommend? answer:","max_tokens":1,"allowed_tokens":["Yes","No"],"user":"u42"}`...)
}

// deepArray nests n arrays in the value of field x, inside the body's
// object.
func deepArray(n int) string {
	return `{"prompt":"p","x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// deepObject nests n objects in the value of field x.
func deepObject(n int) string {
	return `{"x":` + strings.Repeat(`{"a":`, n) + "1" + strings.Repeat("}", n+1)
}

// decodeSeeds are the edge cases of encoding/json's decoding that
// decodeCompletion must match, beside FuzzCompletions' bodies.
var decodeSeeds = []string{
	// Escapes, surrogate pairs and lone surrogates.
	`{"prompt":"a\"b\\c\/d\b\f\n\r\t\u0041\u00e9\u2028"}`,
	`{"prompt":"\ud83d\ude00 \uD83D\uDE00"}`,
	`{"prompt":"\ud800"}`,
	`{"prompt":"x\udc00y"}`,
	`{"prompt":"\ud800\u0041"}`,
	`{"prompt":"\ud800\ud800\udc00"}`,
	`{"prompt":"\ud800\\"}`,
	`{"prompt":"\u0000"}`,
	// Invalid UTF-8 in values and keys, an encoded surrogate, a cut rune.
	"{\"prompt\":\"\xff\xfe\xc3 \xe2\x82 ok\"}",
	"{\"prompt\":\"\xed\xa0\x80\"}",
	"{\"user\":\"\xef\xbf\xbd\",\"pr\xffompt\":\"x\"}",
	"{\"prompt\":\"\xe2\x82\"}",
	// Keys match as bytes.EqualFold does on the unescaped key.
	`{"PROMPT":"x","Max_Tokens":1,"ALLOWED_tokens":["a"],"User":"u","Model":"m"}`,
	`{"ſlo_class":"batch","max_to` + "\u212a" + `ens":1}`,
	`{"pro\u006dpt":"x","\u0075ser":"u"}`,
	`{"prompt\u0000":"x","promp":"y"}`,
	// The last duplicate wins; a null keeps a string or int as it was.
	`{"prompt":"a","prompt":"b","user":"u","user":null,"max_tokens":1,"max_tokens":null}`,
	`{"allowed_tokens":["a","b","c"],"allowed_tokens":["x"],"allowed_tokens":[null,null,null,null,null]}`,
	`{"allowed_tokens":["a","b"],"allowed_tokens":[]}`,
	`{"allowed_tokens":["a"],"allowed_tokens":null}`,
	`{"allowed_tokens":[null,"x",null]}`,
	`null`,
	` null `,
	`{}`,
	// Wrong types, at the top and in each field.
	`{"prompt":5}`, `{"prompt":true}`, `{"prompt":{"a":1}}`, `{"prompt":[]}`,
	`{"max_tokens":"1"}`, `{"max_tokens":false}`, `{"max_tokens":[1]}`,
	`{"allowed_tokens":"Yes"}`, `{"allowed_tokens":[1]}`, `{"allowed_tokens":[["x"]]}`,
	`{"allowed_tokens":{}}`, `"prompt"`, `[{"prompt":"x"}]`, `5`, `true`, `false`,
	// Number forms.
	`{"max_tokens":1.0}`, `{"max_tokens":1e0}`, `{"max_tokens":-0}`, `{"max_tokens":-1}`,
	`{"max_tokens":01}`, `{"max_tokens":-}`, `{"max_tokens":+1}`, `{"max_tokens":.5}`,
	`{"max_tokens":1.}`, `{"max_tokens":1e}`, `{"max_tokens":1e+}`, `{"max_tokens":2E-3}`,
	`{"max_tokens":9223372036854775807}`, `{"max_tokens":9223372036854775808}`,
	`{"max_tokens":-9223372036854775808}`, `{"max_tokens":-9223372036854775809}`,
	`{"x":-12.5e+10,"y":0.0,"z":1E9}`,
	// Unknown fields of every kind are checked and skipped.
	`{"x":{"a":[1,true,false,null,"s",{"b":{}}]},"prompt":"p"}`,
	// Trailing bytes after the first value.
	`{"prompt":"x"} junk`, `{"prompt":"x"}{"prompt":"y"}`, `nullx`, `5x`, `"s"x`, `[]]`,
	// Syntax errors.
	`{"prompt":"a",}`, `{,}`, `{"a" 1}`, `{"a":1 "b":2}`, `{"a":[1,]}`, `{"a":[1 2]}`,
	`{"a":tru}`, `{"a":nul}`, `{"a":fals}`, `{"a":trux}`, `{1:2}`, `{"a":}`, `}`, `x`,
	"{\"prompt\":\"a\x01\"}", `{"prompt":"\x"}`, `{"prompt":"\'"}`, `{"prompt":"\u12G4"}`,
	// Truncation.
	``, `   `, `{`, `{"prompt":"x"`, `{"prompt":"x`, `{"prompt":tr`, `{"prompt":"\u12`,
	`{"prompt":"\`, `{"max_tokens":1`, `{"max_tokens":-`, `[`, `"abc`,
	// Nesting up to encoding/json's limit, and one level past it.
	deepArray(maxNesting - 1), deepArray(maxNesting),
	deepObject(maxNesting - 1), deepObject(maxNesting),
	strings.Repeat("[", maxNesting+1),
}

// FuzzDecodeCompletionMatchesJSON holds decodeCompletion to encoding/json:
// on any body it must accept and reject what the reference decoder does
// and yield the same fields. A second run cuts the read at limit bytes
// with http.MaxBytesReader, as the handler's size cap does: both decoders
// must then agree on success, on the cap as the error, and on the fields.
func FuzzDecodeCompletionMatchesJSON(f *testing.F) {
	for _, s := range completionSeeds {
		f.Add([]byte(s.body), uint16(len(s.body)))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s), uint16(len(s)))
	}
	// Caps that cut a body: inside the first value, just after it, and
	// at each end of a top-level scalar.
	f.Add([]byte(`{"prompt":"x"}                `), uint16(14))
	f.Add([]byte(`{"prompt":"x"}                `), uint16(13))
	f.Add([]byte(`{"prompt":"xxxxxxxxxxxxxxxxxxx"}`), uint16(10))
	f.Add([]byte(`null    `), uint16(4))
	f.Add([]byte(`null    `), uint16(5))
	f.Add([]byte(`12345   `), uint16(5))
	f.Add([]byte(`"s"   `), uint16(3))
	f.Add([]byte(`        `), uint16(3))
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		got, err := decodeCompletion(body, nil)
		want, wantErr := decodeReference(bytes.NewReader(body))
		compareDecodes(t, body, got, err, want, wantErr)

		capped := func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(limit))
		}
		read, readErr := readBody(capped(), -1)
		if len(read) > int(limit) || !bytes.Equal(read, body[:len(read)]) {
			t.Fatalf("read %q under a cap of %d bytes", read, limit)
		}
		got, err = decodeCompletion(read, readErr)
		want, wantErr = decodeReference(capped())
		compareDecodes(t, body, got, err, want, wantErr)
	})
}

func compareDecodes(t *testing.T, body []byte, got CompletionRequest, err error, want CompletionRequest, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("body %q: error %v, encoding/json's %v", body, err, wantErr)
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) != errors.As(wantErr, &tooLarge) {
		t.Fatalf("body %q: error %v, encoding/json's %v: one hit the cap and the other did not", body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n got %#v\nwant %#v", body, got, want)
	}
}

// TestDecodeCompletionAllocs pins the allocations of reading and
// decoding a benchmark-shaped body: the body buffer, the prompt, the
// user, the two allowed tokens, and the allowed-token slice, which grows
// once per element as encoding/json's does.
func TestDecodeCompletionAllocs(t *testing.T) {
	body := benchBody()
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		buf, err := readBody(rd, int64(len(body)))
		if _, err := decodeCompletion(buf, err); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 7 {
		t.Fatalf("%v allocations per read and decode of a %d-byte body, want 7", allocs, len(body))
	}
}

// BenchmarkDecodeCompletion reads and decodes a benchmark-shaped body
// the way the completions handler does, through the size cap's reader.
func BenchmarkDecodeCompletion(b *testing.B) {
	body := benchBody()
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		buf, err := readBody(http.MaxBytesReader(nil, io.NopCloser(rd), maxCompletionBody), int64(len(body)))
		if req, err := decodeCompletion(buf, err); err != nil || req.Prompt == "" {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeCompletionJSON is the encoding/json reference on the same
// body: "stream" decodes from the capped body reader, as the handler did
// before decodeCompletion; "buffered" first reads the body into one
// buffer with readBody.
func BenchmarkDecodeCompletionJSON(b *testing.B) {
	body := benchBody()
	rd := bytes.NewReader(body)
	for _, mode := range []string{"stream", "buffered"} {
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				var r io.Reader = http.MaxBytesReader(nil, io.NopCloser(rd), maxCompletionBody)
				if mode == "buffered" {
					buf, err := readBody(r, int64(len(body)))
					if err != nil {
						b.Fatal(err)
					}
					r = bytes.NewReader(buf)
				}
				if req, err := decodeReference(r); err != nil || req.Prompt == "" {
					b.Fatal(err)
				}
			}
		})
	}
}
