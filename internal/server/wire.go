// Package server is the hfadd network front end: it exposes the full
// hFAD store surface — create/append/read/stat/tag/untag/find/
// query-with-pagination/search/batch — to many concurrent clients.
//
// The package is layered so transports stay thin:
//
//	wire.go    request/response structs and the query-tree wire form
//	           (transport-agnostic; gRPC can map onto the same types)
//	server.go  the op layer (one method per op; each write request is
//	           its own transaction, and N clients share device syncs
//	           through the WAL's group commit), admission control, the
//	           HTTP/JSON adapter and graceful shutdown
//	metrics.go /metrics and /debug/stats
//	client.go  the Go client (hfadctl -addr, the package's tests)
package server

import (
	"errors"
	"fmt"

	"repro/hfad"
)

// Wire limits: one request may not carry unbounded work.
const (
	// MaxBatchItems bounds one batch request's item count.
	MaxBatchItems = 4096
	// MaxDataBytes bounds one append/create payload.
	MaxDataBytes = 4 << 20
	// MaxReadBytes bounds one read response.
	MaxReadBytes = 4 << 20
)

// ErrBadRequest marks malformed requests (HTTP 400).
var ErrBadRequest = errors.New("server: bad request")

// TagPair is one (tag, value) naming term on the wire.
type TagPair struct {
	Tag   string `json:"tag"`
	Value string `json:"value"`
}

// PageSpec is streaming pagination on the wire: at most Limit results
// (0 = all) with OIDs strictly greater than After.
type PageSpec struct {
	Limit int    `json:"limit,omitempty"`
	After uint64 `json:"after,omitempty"`
}

// QueryNode is the wire form of a boolean query tree. Exactly one field
// must be set per node.
type QueryNode struct {
	Term  *TagPair    `json:"term,omitempty"`
	Range *RangeSpec  `json:"range,omitempty"`
	And   []QueryNode `json:"and,omitempty"`
	Or    []QueryNode `json:"or,omitempty"`
	Not   *QueryNode  `json:"not,omitempty"`
}

// RangeSpec matches tag values in [Lo, Hi) on the wire.
type RangeSpec struct {
	Tag string `json:"tag"`
	Lo  string `json:"lo"`
	Hi  string `json:"hi"`
}

// ToQuery converts the wire tree into a core query.
func (n *QueryNode) ToQuery() (hfad.Query, error) {
	set := 0
	if n.Term != nil {
		set++
	}
	if n.Range != nil {
		set++
	}
	if len(n.And) > 0 {
		set++
	}
	if len(n.Or) > 0 {
		set++
	}
	if n.Not != nil {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("%w: query node must set exactly one of term/range/and/or/not", ErrBadRequest)
	}
	switch {
	case n.Term != nil:
		return hfad.Term{Tag: n.Term.Tag, Value: []byte(n.Term.Value)}, nil
	case n.Range != nil:
		return hfad.Range{Tag: n.Range.Tag, Lo: []byte(n.Range.Lo), Hi: []byte(n.Range.Hi)}, nil
	case n.Not != nil:
		kid, err := n.Not.ToQuery()
		if err != nil {
			return nil, err
		}
		return hfad.Not{Kid: kid}, nil
	case len(n.And) > 0:
		kids, err := toQueries(n.And)
		if err != nil {
			return nil, err
		}
		return hfad.And{Kids: kids}, nil
	default:
		kids, err := toQueries(n.Or)
		if err != nil {
			return nil, err
		}
		return hfad.Or{Kids: kids}, nil
	}
}

func toQueries(nodes []QueryNode) ([]hfad.Query, error) {
	kids := make([]hfad.Query, len(nodes))
	for i := range nodes {
		q, err := nodes[i].ToQuery()
		if err != nil {
			return nil, err
		}
		kids[i] = q
	}
	return kids, nil
}

// --- requests and responses ---

// CreateReq creates one object, optionally with initial content and
// names — the common ingest compound, so one admission ticket and one
// transaction cover the whole logical insert.
type CreateReq struct {
	Owner string    `json:"owner,omitempty"`
	Data  []byte    `json:"data,omitempty"` // base64 on the wire
	Tags  []TagPair `json:"tags,omitempty"`
	// Index requests full-text indexing of Data.
	Index bool `json:"index,omitempty"`
}

// CreateResp returns the new object's identity.
type CreateResp struct {
	OID  uint64 `json:"oid"`
	Size uint64 `json:"size"`
}

// AppendReq appends Data to an existing object.
type AppendReq struct {
	OID  uint64 `json:"oid"`
	Data []byte `json:"data"`
}

// AppendResp returns the object's size immediately after this append
// landed (exact even with concurrent appenders: the offset is resolved
// atomically with the write, so sizes order the appends).
type AppendResp struct {
	Size uint64 `json:"size"`
}

// StatResp is object metadata on the wire.
type StatResp struct {
	OID   uint64 `json:"oid"`
	Size  uint64 `json:"size"`
	Mode  uint32 `json:"mode"`
	Owner string `json:"owner"`
	Mtime int64  `json:"mtime_ns"`
	Ctime int64  `json:"ctime_ns"`
}

// TagReq adds or removes one name.
type TagReq struct {
	OID   uint64 `json:"oid"`
	Tag   string `json:"tag"`
	Value string `json:"value"`
}

// NamesResp lists an object's names.
type NamesResp struct {
	Names []TagPair `json:"names"`
}

// FindReq resolves a naming vector (conjunction of terms), paginated.
type FindReq struct {
	Pairs []TagPair `json:"pairs"`
	Page  PageSpec  `json:"page,omitempty"`
}

// QueryReq evaluates a boolean query tree, paginated.
type QueryReq struct {
	Query QueryNode `json:"query"`
	Page  PageSpec  `json:"page,omitempty"`
}

// OIDsResp is a page of result OIDs. More is set when the page filled
// its limit; pass NextAfter as the next page's After cursor.
type OIDsResp struct {
	OIDs      []uint64 `json:"oids"`
	More      bool     `json:"more,omitempty"`
	NextAfter uint64   `json:"next_after,omitempty"`
}

// ExplainResp is the executed plan of a profiled query.
type ExplainResp struct {
	OIDs  []uint64   `json:"oids"`
	Steps []PlanStep `json:"steps"`
}

// PlanStep is one element of an executed plan on the wire.
type PlanStep struct {
	Rendered string `json:"rendered"`
	Estimate int    `json:"estimate"`
	Negated  bool   `json:"negated,omitempty"`
	Seeks    int64  `json:"seeks"`
	Steps    int64  `json:"steps"`
}

// BatchReq is the client-side batch: every item commits as one
// transaction (one write set, one group-commit slot).
type BatchReq struct {
	Items []BatchItem `json:"items"`
}

// BatchItem is one mutation in a batch. Exactly one field must be set.
type BatchItem struct {
	Create *CreateReq `json:"create,omitempty"`
	Append *AppendReq `json:"append,omitempty"`
	Tag    *TagReq    `json:"tag,omitempty"`
	// Index full-text indexes an existing object's current content.
	Index *uint64 `json:"index,omitempty"`
}

// BatchResp carries per-item results, parallel to the request items.
type BatchResp struct {
	Results []BatchItemResult `json:"results"`
}

// BatchItemResult is one item's outcome.
type BatchItemResult struct {
	OID  uint64 `json:"oid,omitempty"`
	Size uint64 `json:"size,omitempty"`
	Err  string `json:"err,omitempty"`
}

// ErrorResp is the JSON error envelope.
type ErrorResp struct {
	Error string `json:"error"`
	// RetryAfterMS hints backoff on 429/503.
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
}
