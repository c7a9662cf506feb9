package fulltext

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// referenceTokenize is the analyzer as it was written before analyze:
// a rune loop into a strings.Builder with a string stemmer. It stays as
// the specification analyze must match byte for byte, since callers
// outside this package (models of the index, query analyzers) build
// their terms with Tokenize.
func referenceTokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len(tok) > maxTokenLen {
			tok = tok[:maxTokenLen]
		}
		if stopwords[tok] {
			return
		}
		tok = referenceStem(tok)
		if tok != "" && !stopwords[tok] {
			out = append(out, tok)
		}
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			flush()
		}
	}
	flush()
	return out
}

func referenceStem(tok string) string {
	n := len(tok)
	switch {
	case n > 4 && strings.HasSuffix(tok, "ies"):
		return tok[:n-3] + "y"
	case n > 4 && strings.HasSuffix(tok, "sses"):
		return tok[:n-2]
	case n > 3 && strings.HasSuffix(tok, "es") && !strings.HasSuffix(tok, "ses"):
		return tok[:n-1]
	case n > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") && !strings.HasSuffix(tok, "us"):
		return tok[:n-1]
	case n > 5 && strings.HasSuffix(tok, "ing"):
		return tok[:n-3]
	case n > 4 && strings.HasSuffix(tok, "ed"):
		return tok[:n-2]
	default:
		return tok
	}
}

// randomText draws text from the analyzer's hard cases: mixed case,
// digits, stopwords in every case, each stemmer suffix on stems of every
// length around its guard, multi-byte UTF-8, invalid bytes, and tokens
// past maxTokenLen.
func randomText(rng *rand.Rand) string {
	stops := make([]string, 0, len(stopwords))
	for w := range stopwords {
		stops = append(stops, w)
	}
	suffixes := []string{"ies", "sses", "es", "ses", "s", "ss", "us", "ing", "ed", ""}
	seps := []string{" ", "  ", "-", ".", ",\t", "\n", "\x00", "é", "日本", "😀", "\xff", "\xc3", "\xe2\x82", "\xc3A", "ß"}
	randCase := func(s string) string {
		b := []byte(s)
		for i, c := range b {
			if c >= 'a' && c <= 'z' && rng.IntN(3) == 0 {
				b[i] = c - 'a' + 'A'
			}
		}
		return string(b)
	}
	letters := "abcdefghijklmnopqrstuvwxyz0123456789"
	var sb strings.Builder
	for n := rng.IntN(12); n >= 0; n-- {
		switch rng.IntN(5) {
		case 0:
			sb.WriteString(randCase(stops[rng.IntN(len(stops))]))
		case 1:
			k := rng.IntN(maxTokenLen + 20)
			if rng.IntN(4) > 0 {
				k = rng.IntN(6)
			}
			for i := 0; i < k; i++ {
				sb.WriteByte(letters[rng.IntN(len(letters))])
			}
			sb.WriteString(randCase(suffixes[rng.IntN(len(suffixes))]))
		case 2:
			// A stopword with a suffix may stem to a stopword ("ares").
			sb.WriteString(randCase(stops[rng.IntN(len(stops))] + suffixes[rng.IntN(len(suffixes))]))
		case 3:
			fmt.Fprintf(&sb, "%d", rng.IntN(100000))
		case 4:
			// A token truncated at maxTokenLen lands a suffix on the cut.
			pad := maxTokenLen - 3 + rng.IntN(6)
			sb.WriteString(strings.Repeat("x", pad) + suffixes[rng.IntN(len(suffixes))] + "tail")
		}
		sb.WriteString(seps[rng.IntN(len(seps))])
	}
	return sb.String()
}

// TestTokenizeMatchesReference: Tokenize, and analyze over bytes, give
// exactly the reference analyzer's terms on random hard inputs.
func TestTokenizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 1))
	for i := 0; i < 20000; i++ {
		text := randomText(rng)
		want := referenceTokenize(text)
		if got := Tokenize(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
		}
		var fromBytes []string
		analyze([]byte(text), nil, func(term []byte) { fromBytes = append(fromBytes, string(term)) })
		if !reflect.DeepEqual(fromBytes, want) {
			t.Fatalf("analyze([]byte(%q)) = %q, reference %q", text, fromBytes, want)
		}
	}
}

// TestAddOfBufferedTermsAllocatesOnlyGrowth: adding documents whose terms
// the buffer already holds allocates nothing per term or per document —
// no term strings, no frequency map — only the amortized growth of the
// posting lists and of the buffered-document set. The bound is the
// count measured when the analyzer was written.
func TestAddOfBufferedTermsAllocatesOnlyGrowth(t *testing.T) {
	x, _ := newIndex(t, Config{FlushDocs: 1 << 20})
	text := "The quick brown foxes were jumping over lazy dogs; indexing 42 libraries"
	textBytes := []byte(text)
	doc := uint64(0)
	for ; doc < 64; doc++ {
		if err := x.Add(nil, doc, text); err != nil {
			t.Fatal(err)
		}
	}
	const adds, bound = 1000, 29
	for _, leg := range []struct {
		name string
		add  func() error
	}{
		{"string", func() error { return x.Add(nil, doc, text) }},
		{"bytes", func() error { return x.AddBytes(nil, doc, textBytes) }},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < adds; i++ {
				doc++
				if err := leg.add(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > bound {
			t.Errorf("%s: %d adds of buffered terms allocated %v times, want at most %d", leg.name, adds, allocs, bound)
		}
	}
}
