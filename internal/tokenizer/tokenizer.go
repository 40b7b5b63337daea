// Package tokenizer provides a deterministic word-piece style tokenizer
// for the serving frontend. It is not a linguistic BPE model — engine
// performance depends only on token counts and token identity (for prefix
// caching), so the tokenizer's job is to map equal text to equal token
// streams, split long words the way subword vocabularies do, and be stable
// across runs.
//
// A word longer than maxPieceLen is cut every maxPieceLen bytes, not
// runes, so a cut can fall inside a multi-byte rune; the next piece then
// starts mid-rune and still continues the word. The rule stays because
// token IDs are part of the served contract: they key the prefix cache,
// and the scorer folds them into every response's token scores, so
// changing how text splits would change both.
//
// Encode and Count share one walk over the text's bytes. Pieces are byte
// ranges of the text and are hashed where they lie, with one exception:
// an invalid UTF-8 byte reads as U+FFFD, a symbol, so it becomes the
// piece "�" — three bytes that are not in the text.
package tokenizer

import (
	"unicode"
	"unicode/utf8"
)

// maxPieceLen approximates subword splitting: words longer than this many
// bytes are split into pieces, mimicking how BPE vocabularies fragment
// rare words.
const maxPieceLen = 6

// replacement is the piece an invalid UTF-8 byte becomes.
const replacement = string(utf8.RuneError)

// A rune's role in splitting text into pieces.
const (
	inWord  = iota // joins the word around it
	isSpace        // ends a word
	isPiece        // ends a word and is a piece of its own (punctuation, symbols)
)

// asciiClass holds the role of every ASCII byte, so the walk decodes and
// classifies only non-ASCII runes one at a time.
var asciiClass [utf8.RuneSelf]uint8

func init() {
	for r := rune(0); r < utf8.RuneSelf; r++ {
		asciiClass[r] = class(r)
	}
}

func class(r rune) uint8 {
	switch {
	case unicode.IsSpace(r):
		return isSpace
	case unicode.IsPunct(r) || unicode.IsSymbol(r):
		return isPiece
	}
	return inWord
}

// decodeClass decodes the non-ASCII rune at text[i] and returns its role
// and byte width.
func decodeClass(text string, i int) (uint8, int) {
	r, n := utf8.DecodeRuneInString(text[i:])
	return class(r), n
}

// walker yields the pieces of a text in order.
type walker struct {
	text string
	i    int // the next byte to read
	end  int // the end of the word being cut, while i < end
}

// next returns the next piece, or false at the end of the text.
func (w *walker) next() (string, bool) {
	if w.i < w.end {
		return w.cut(), true
	}
	text, i := w.text, w.i
	for i < len(text) {
		start := i
		c, n := uint8(0), 1
		if b := text[i]; b < utf8.RuneSelf {
			c = asciiClass[b]
		} else {
			c, n = decodeClass(text, i)
		}
		i += n
		switch c {
		case isSpace:
			continue
		case isPiece:
			w.i = i
			if n == 1 && text[start] >= utf8.RuneSelf {
				return replacement, true
			}
			return text[start:i], true
		}
		for i < len(text) {
			if b := text[i]; b < utf8.RuneSelf {
				if asciiClass[b] != inWord {
					break
				}
				i++
				continue
			}
			c, n := decodeClass(text, i)
			if c != inWord {
				break
			}
			i += n
		}
		w.i, w.end = start, i
		return w.cut(), true
	}
	w.i = i
	return "", false
}

// cut returns the word's next maxPieceLen bytes, or what is left of it.
func (w *walker) cut() string {
	start := w.i
	w.i = min(start+maxPieceLen, w.end)
	return w.text[start:w.i]
}

// Tokenizer maps text to deterministic token IDs.
type Tokenizer struct {
	// BOS is prepended to every encoding when non-zero.
	BOS uint64
}

// New returns a tokenizer with a BOS token, like the paper's Llama/Qwen
// tokenizers.
func New() *Tokenizer { return &Tokenizer{BOS: 1} }

// Encode maps text to token IDs: one token per piece, where pieces are
// whitespace-delimited words further split at punctuation boundaries and
// maxPieceLen runs. The returned slice is its only allocation unless the
// text averages under four bytes a piece.
func (t *Tokenizer) Encode(text string) []uint64 {
	out := make([]uint64, 0, len(text)/4+2)
	if t.BOS != 0 {
		out = append(out, t.BOS)
	}
	w := walker{text: text}
	for p, ok := w.next(); ok; p, ok = w.next() {
		out = append(out, pieceID(p))
	}
	return out
}

// Count returns the token count of text without materializing IDs; it
// allocates nothing.
func (t *Tokenizer) Count(text string) int {
	n := 0
	if t.BOS != 0 {
		n++
	}
	w := walker{text: text}
	for _, ok := w.next(); ok; _, ok = w.next() {
		n++
	}
	return n
}

// pieceID hashes a piece into a stable token ID (FNV-1a, offset away from
// the reserved special-token range).
func pieceID(piece string) uint64 {
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

// TokenID exposes the stable ID of one piece (used by the scorer to
// identify allowed output tokens).
func TokenID(piece string) uint64 { return pieceID(piece) }
