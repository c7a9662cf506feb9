// Package fulltext implements the full-text index store hFAD uses for
// FULLTEXT-tagged search, substituting for the Lucene port the paper
// describes ("we use Lucene for full-text search indices, and we use
// background threads to perform lazy full-text indexing").
//
// The design follows Lucene's segment model: documents are analyzed into
// an in-memory buffer which is flushed as immutable on-device segments
// (btree-backed, term → delta-encoded postings); the segments of one
// level are merged into one segment of the next, so each posting is
// rewritten once per level; deletes are tombstones scoped to the segments
// that existed at delete time, so re-added documents are not hidden by
// their own tombstones. A background indexer provides the paper's lazy
// indexing; experiment E9 measures the write-latency/freshness trade.
package fulltext

// stopwords are excluded from the index; the list is the usual tiny
// English core, enough to keep postings for function words from dominating.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"has": true, "have": true, "he": true, "in": true, "is": true,
	"it": true, "its": true, "of": true, "on": true, "or": true,
	"that": true, "the": true, "this": true, "to": true, "was": true,
	"were": true, "will": true, "with": true,
}

// maxTokenLen truncates pathological tokens.
const maxTokenLen = 64

// Tokenize analyzes text into index terms: lower-cased alphanumeric runs,
// stopwords removed, light suffix stripping applied. The same analyzer is
// used at index and query time so terms always agree.
func Tokenize(text string) []string {
	var out []string
	analyze(text, nil, func(term []byte) { out = append(out, string(term)) })
	return out
}

// analyze is the one analyzer: a byte loop that lower-cases each
// alphanumeric run into buf, truncates it to maxTokenLen, drops stopwords
// before and after stemming, and hands each surviving term to emit. Every
// other byte separates terms — a multi-byte UTF-8 sequence has no ASCII
// byte in it, so this is the rune loop's answer without decoding. The term
// slice is valid only during emit; analyze returns buf for reuse.
func analyze[T ~string | ~[]byte](text T, buf []byte, emit func(term []byte)) []byte {
	tok := buf[:0]
	for i := 0; i <= len(text); i++ {
		var c byte
		if i < len(text) {
			c = text[i]
		}
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			tok = append(tok, c)
			continue
		case c >= 'A' && c <= 'Z':
			tok = append(tok, c-'A'+'a')
			continue
		case len(tok) == 0:
			continue
		}
		term := tok
		if len(term) > maxTokenLen {
			term = term[:maxTokenLen]
		}
		if !stopwords[string(term)] {
			if term = stem(term); len(term) > 0 && !stopwords[string(term)] {
				emit(term)
			}
		}
		tok = tok[:0]
	}
	return tok
}

// stem applies a deliberately light suffix stripper (a fraction of Porter)
// in place: plural -ies/-es/-s and verbal -ing/-ed, with length guards so
// short words pass through unchanged. Light stemming keeps recall
// reasonable without the full algorithm's edge cases.
func stem(tok []byte) []byte {
	n := len(tok)
	switch {
	case n > 4 && hasSuffix(tok, "ies"):
		return append(tok[:n-3], 'y')
	case n > 4 && hasSuffix(tok, "sses"):
		return tok[:n-2]
	case n > 3 && hasSuffix(tok, "es") && !hasSuffix(tok, "ses"):
		return tok[:n-1] // "boxes" -> "boxe": keep the -e form
	case n > 3 && hasSuffix(tok, "s") && !hasSuffix(tok, "ss") && !hasSuffix(tok, "us"):
		return tok[:n-1]
	case n > 5 && hasSuffix(tok, "ing"):
		return tok[:n-3]
	case n > 4 && hasSuffix(tok, "ed"):
		return tok[:n-2]
	default:
		return tok
	}
}

func hasSuffix(b []byte, suffix string) bool {
	return len(b) >= len(suffix) && string(b[len(b)-len(suffix):]) == suffix
}
