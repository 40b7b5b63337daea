package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/completions body decoder. A prefill-only request is a long
// prompt answered with one token, so taking in the prompt is a large share
// of what the server does per request. This decoder reads the body into
// one buffer and walks its first JSON value once, copying out only the
// fields CompletionRequest has; BenchmarkDecodeCompletion and
// BenchmarkDecodeCompletionJSON compare it with encoding/json's
// reflective decoder.
//
// It accepts and rejects exactly the bodies that
// json.NewDecoder(body).Decode(&req) does and yields the same fields:
// only the first value counts and trailing bytes are ignored; keys match
// as bytes.EqualFold does on the unescaped key, and the last duplicate
// wins; null leaves a string or int as it was and sets allowed_tokens to
// nil; invalid UTF-8 and lone surrogates become U+FFFD; max_tokens must be
// an integer literal that fits an int; nesting deeper than
// encoding/json's limit is an error. A body read that stopped early (the
// size cap, a broken connection) is the error only when the first value
// does not end before it. FuzzDecodeCompletionMatchesJSON holds the
// decoder to encoding/json.

// maxNesting is encoding/json's limit on nested arrays and objects.
const maxNesting = 10000

// maxBodyPrealloc bounds the buffer readBody allocates from a declared
// Content-Length: a client that declares a large body has to send it
// before the buffer grows past this.
const maxBodyPrealloc = 1 << 20

// errTruncated marks a value that runs past the bytes read.
var errTruncated = errors.New("unexpected end of JSON input")

// readBody reads r to its end into one buffer, sized from hint (a
// Content-Length, or -1 when the length is unknown). It returns the bytes
// read and the error that ended the read, or nil at EOF.
func readBody(r io.Reader, hint int64) ([]byte, error) {
	size := int64(512)
	if hint >= 0 {
		// One byte of room past the body lets the read that sees EOF
		// land without growing the buffer.
		size = min(hint, maxBodyPrealloc) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeCompletion decodes the first JSON value of body, the bytes read
// from a request body. readErr is the error that ended the read, nil at
// EOF: it is returned when the value runs past the bytes read.
func decodeCompletion(body []byte, readErr error) (CompletionRequest, error) {
	d := decoder{buf: body, more: readErr != nil}
	var req CompletionRequest
	err := d.top(&req)
	switch {
	case err == errTruncated && readErr != nil:
		return req, readErr
	case err == errTruncated:
		return req, io.ErrUnexpectedEOF
	case err == nil:
		err = d.typeErr
	}
	return req, err
}

// decoder walks one JSON value in buf. Each step takes the index of the
// value's first byte and returns the index just past it; it returns
// errTruncated when buf ends first and a syntax error at the first byte
// encoding/json's scanner rejects. A value of the wrong type for its field
// is not fatal: the walk goes on to check the rest of the syntax, as
// encoding/json does, and the first such error is kept in typeErr.
type decoder struct {
	buf     []byte
	more    bool // the body may continue past buf
	typeErr error
}

func (d *decoder) top(req *CompletionRequest) error {
	i, err := d.next(0)
	if err != nil {
		return err
	}
	switch c := d.buf[i]; c {
	case '{':
		_, err = d.object(i, req)
		return err
	case 'n':
		i, err = d.literal(i, "null")
	default:
		d.mismatch(i, "a completion request")
		if i, err = d.skip(i, 0); c == '[' {
			return err
		}
	}
	// encoding/json ends a top-level array at its bracket, but a scalar
	// only at the byte after it, or at EOF: a scalar that ends where a
	// read stopped early is unfinished.
	if err == nil && i == len(d.buf) && d.more {
		return errTruncated
	}
	return err
}

// object decodes the top-level object at buf[i] into req. A key names a
// field as encoding/json matches them: its unescaped value equals the
// field's JSON name under bytes.EqualFold.
func (d *decoder) object(i int, req *CompletionRequest) (int, error) {
	return d.container(i, 1, func(i int, key []byte, plainKey bool) (int, error) {
		if !plainKey {
			key = []byte(unquote(key))
		}
		is := func(name string) bool { return bytes.EqualFold(key, []byte(name)) }
		switch {
		case is("model"):
			return d.stringField(i, &req.Model, 1)
		case is("prompt"):
			return d.stringField(i, &req.Prompt, 1)
		case is("max_tokens"):
			return d.intField(i, &req.MaxTokens)
		case is("allowed_tokens"):
			return d.stringsField(i, &req.AllowedTokens)
		case is("user"):
			return d.stringField(i, &req.User, 1)
		case is("slo_class"):
			return d.stringField(i, &req.SLOClass, 1)
		}
		return d.skip(i, 1)
	})
}

// stringField decodes the string at buf[i] into *dst; null leaves *dst as
// it was. depth is the nesting of the array or object that holds it.
func (d *decoder) stringField(i int, dst *string, depth int) (int, error) {
	switch d.buf[i] {
	case '"':
		j, plain, err := d.str(i)
		switch {
		case err != nil:
		case plain:
			*dst = string(d.buf[i+1 : j-1])
		default:
			*dst = unquote(d.buf[i+1 : j-1])
		}
		return j, err
	case 'n':
		return d.literal(i, "null")
	}
	d.mismatch(i, "a string")
	return d.skip(i, depth)
}

// intField decodes the integer at buf[i] into *dst; null leaves *dst as
// it was.
func (d *decoder) intField(i int, dst *int) (int, error) {
	switch c := d.buf[i]; {
	case c == '-' || '0' <= c && c <= '9':
		j, err := d.number(i)
		if err != nil {
			return j, err
		}
		// Like encoding/json, only an integer literal that fits an int
		// decodes: Atoi rejects a fraction, an exponent and overflow.
		if n, err := strconv.Atoi(string(d.buf[i:j])); err == nil {
			*dst = n
		} else {
			d.mismatch(i, "an int")
		}
		return j, nil
	case c == 'n':
		return d.literal(i, "null")
	}
	d.mismatch(i, "an int")
	return d.skip(i, 1)
}

// stringsField decodes the array of strings at buf[i] into *dst, null
// into nil. It fills the slice as encoding/json does: it decodes into the
// elements already there and grows the slice as it goes, so a null
// element keeps what its slot held, then truncates to the array's length.
func (d *decoder) stringsField(i int, dst *[]string) (int, error) {
	switch d.buf[i] {
	case '[':
	case 'n':
		j, err := d.literal(i, "null")
		if err == nil {
			*dst = nil
		}
		return j, err
	default:
		d.mismatch(i, "an array of strings")
		return d.skip(i, 1)
	}
	s, n := *dst, 0
	j, err := d.container(i, 2, func(i int, _ []byte, _ bool) (int, error) {
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			s = append(s, "")
		}
		n++
		return d.stringField(i, &s[n-1], 2)
	})
	if err != nil {
		return j, err
	}
	if n == 0 {
		s = []string{}
	}
	*dst = s[:n]
	return j, nil
}

// skip checks the value at buf[i] and returns the index past it. depth is
// the nesting of the array or object that holds it.
func (d *decoder) skip(i, depth int) (int, error) {
	switch c := d.buf[i]; {
	case c == '"':
		j, _, err := d.str(i)
		return j, err
	case c == 't':
		return d.literal(i, "true")
	case c == 'f':
		return d.literal(i, "false")
	case c == 'n':
		return d.literal(i, "null")
	case c == '{' || c == '[':
		return d.container(i, depth+1, func(i int, _ []byte, _ bool) (int, error) {
			return d.skip(i, depth+1)
		})
	case c == '-' || '0' <= c && c <= '9':
		return d.number(i)
	}
	return i, d.syntax(i, "looking for beginning of value")
}

// container walks the array or object at buf[i], which is depth deep,
// and returns the index past it. It calls value on each member's value
// with the index of its first byte and, in an object, the member's raw
// key and whether that key is plain (see str).
func (d *decoder) container(i, depth int, value func(i int, key []byte, plainKey bool) (int, error)) (int, error) {
	if depth > maxNesting {
		return i, d.syntax(i, "exceeded max depth")
	}
	object := d.buf[i] == '{'
	end := byte(']')
	if object {
		end = '}'
	}
	i, err := d.next(i + 1)
	if err != nil {
		return i, err
	}
	if d.buf[i] == end {
		return i + 1, nil
	}
	for {
		var key []byte
		plainKey := false
		if object {
			if d.buf[i] != '"' {
				return i, d.syntax(i, "looking for beginning of object key string")
			}
			j, plain, err := d.str(i)
			if err != nil {
				return j, err
			}
			key, plainKey = d.buf[i+1:j-1], plain
			if i, err = d.next(j); err != nil {
				return i, err
			}
			if d.buf[i] != ':' {
				return i, d.syntax(i, "after object key")
			}
			if i, err = d.next(i + 1); err != nil {
				return i, err
			}
		}
		if i, err = value(i, key, plainKey); err != nil {
			return i, err
		}
		if i, err = d.next(i); err != nil {
			return i, err
		}
		switch d.buf[i] {
		case ',':
			if i, err = d.next(i + 1); err != nil {
				return i, err
			}
		case end:
			return i + 1, nil
		default:
			return i, d.syntax(i, "after a member")
		}
	}
}

// next skips whitespace from i and returns the index of the next byte.
func (d *decoder) next(i int) (int, error) {
	for ; i < len(d.buf); i++ {
		switch d.buf[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i, nil
		}
	}
	return i, errTruncated
}

// literal checks that buf[i:] spells lit, whose first byte the caller
// has matched.
func (d *decoder) literal(i int, lit string) (int, error) {
	for k := 1; k < len(lit); k++ {
		if i+k == len(d.buf) {
			return i + k, errTruncated
		}
		if d.buf[i+k] != lit[k] {
			return i + k, d.syntax(i+k, "in literal "+lit)
		}
	}
	return i + len(lit), nil
}

// number checks the number at buf[i]. It stops at the first byte that
// cannot continue the number; the caller checks what follows.
func (d *decoder) number(i int) (int, error) {
	b := d.buf
	if b[i] == '-' {
		if i++; i == len(b) {
			return i, errTruncated
		}
	}
	switch {
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return i, d.syntax(i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) {
			return i, errTruncated
		}
		if b[i] < '0' || b[i] > '9' {
			return i, d.syntax(i, "after decimal point in numeric literal")
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i == len(b) {
			return i, errTruncated
		}
		if b[i] == '+' || b[i] == '-' {
			if i++; i == len(b) {
				return i, errTruncated
			}
		}
		if b[i] < '0' || b[i] > '9' {
			return i, d.syntax(i, "in exponent of numeric literal")
		}
		i = digits(b, i+1)
	}
	return i, nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str checks the string at buf[i] and returns the index past its closing
// quote, and whether its contents are plain: no escape and no invalid
// UTF-8, so they are the string's value as they stand.
func (d *decoder) str(i int) (int, bool, error) {
	b := d.buf
	plain := true
	for i = plainRun(b, i+1); i < len(b); i = plainRun(b, i) {
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain, nil
		case c == '\\':
			plain = false
			if i+1 == len(b) {
				return i + 1, false, errTruncated
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k == len(b) {
						return k, false, errTruncated
					}
					if hexVal(b[k]) < 0 {
						return k, false, d.syntax(k, "in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				return i + 1, false, d.syntax(i+1, "in string escape code")
			}
		case c < ' ':
			return i, false, d.syntax(i, "in string literal")
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				plain = false
			}
			i += n
		}
	}
	return i, false, errTruncated
}

// unquote returns the value of a checked string's contents s, as
// encoding/json's unquoting does: escapes are decoded, and each invalid
// UTF-8 byte and each lone surrogate escape becomes U+FFFD.
func unquote(s []byte) string {
	var out strings.Builder
	out.Grow(len(s))
	for i := 0; i < len(s); {
		j := plainRun(s, i)
		out.Write(s[i:j])
		if i = j; i == len(s) {
			break
		}
		if s[i] != '\\' {
			r, n := utf8.DecodeRune(s[i:])
			out.WriteRune(r) // RuneError writes U+FFFD
			i += n
			continue
		}
		switch c := s[i+1]; c {
		case 'b':
			out.WriteByte('\b')
		case 'f':
			out.WriteByte('\f')
		case 'n':
			out.WriteByte('\n')
		case 'r':
			out.WriteByte('\r')
		case 't':
			out.WriteByte('\t')
		case 'u':
			r := hex4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					r2 = hex4(s[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					i += 6
				}
			}
			out.WriteRune(r)
			continue
		default: // '"', '\\', '/'
			out.WriteByte(c)
		}
		i += 2
	}
	return out.String()
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		r = r<<4 | rune(hexVal(c))
	}
	return r
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// plainRun returns the index of the first byte at or after i that is a
// quote, a backslash, a control byte or not ASCII, or len(b). It tests
// eight bytes at a time: a prompt is mostly such a run.
func plainRun(b []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		// (x - ones) &^ x has a byte's high bit set where that byte of x
		// is 0 (exactly so for the first such byte, which is enough to
		// stop); subtracting 0x20s instead finds the bytes below 0x20.
		q, bs := w^('"'*ones), w^('\\'*ones)
		if ((w-' '*ones)&^w|(q-ones)&^q|(bs-ones)&^bs|w)&highs != 0 {
			break
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return i
		}
	}
	return i
}

// syntax returns the error for an unexpected byte at buf[i].
func (d *decoder) syntax(i int, context string) error {
	return fmt.Errorf("invalid character %q %s at offset %d", d.buf[i], context, i)
}

// mismatch keeps the first type error: the value at buf[i] cannot
// decode as want.
func (d *decoder) mismatch(i int, want string) {
	if d.typeErr == nil {
		d.typeErr = fmt.Errorf("the value at offset %d is not %s", i, want)
	}
}
