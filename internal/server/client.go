package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to an hfadd server. Methods mirror the op layer; 429s
// are retried with the server's backoff hint up to MaxRetries times, so
// callers see backpressure as latency, not errors (set MaxRetries to 0
// to surface 429s directly, e.g. to measure admission control).
type Client struct {
	base string
	hc   *http.Client
	// MaxRetries bounds 429 retries per call (default 8).
	MaxRetries int
}

// sharedTransport pools keep-alive connections across every Client in
// the process. The defaults it overrides matter under fan-in: the
// standard transport keeps only 2 idle connections per host, so a
// 16-connection ingest run churns through TCP handshakes as fast as it
// retires requests — each one a new ephemeral port and a slow-start
// window. One transport sized past such a run's connection count keeps
// every connection hot.
var sharedTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 32,
	IdleConnTimeout:     90 * time.Second,
}

// NewClient returns a client for the server at addr ("host:port" or a
// full http:// base URL). Clients share one pooled transport, so
// connections stay keep-alive warm across clients and calls.
func NewClient(addr string) *Client {
	base := addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	return &Client{
		base:       base,
		hc:         &http.Client{Timeout: 60 * time.Second, Transport: sharedTransport},
		MaxRetries: 8,
	}
}

// StatusError is a non-2xx response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Code, e.Msg)
}

// IsBusy reports whether err is the server shedding load (HTTP 429).
func IsBusy(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusTooManyRequests
}

// jitter spreads a backoff over [wait/2, wait) so a herd of clients
// rejected by the same admission burst doesn't retry in lockstep and
// re-create the burst it's backing off from.
func jitter(wait time.Duration) time.Duration {
	if wait <= 1 {
		return wait
	}
	half := wait / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// do sends one JSON request, retrying 429s with the hinted backoff.
func (c *Client) do(method, path string, req, resp any) error {
	return c.doCtx(context.Background(), method, path, req, resp)
}

// doCtx is do with a caller deadline: the request carries ctx, and a
// backoff sleep is cut short (returning ctx.Err()) rather than slept
// past the caller's budget.
func (c *Client) doCtx(ctx context.Context, method, path string, req, resp any) error {
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return err
		}
	}
	backoff := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if req != nil {
			hreq.Header.Set("Content-Type", "application/json")
		}
		hresp, err := c.hc.Do(hreq)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		if err != nil {
			return err
		}
		if retryable(hresp.StatusCode) && attempt < c.MaxRetries {
			var e ErrorResp
			wait := backoff
			if json.Unmarshal(data, &e) == nil && e.RetryAfterMS > 0 {
				wait = time.Duration(e.RetryAfterMS) * time.Millisecond
			}
			wait = jitter(wait)
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) < wait {
				// Not enough budget left to wait and retry; surface
				// the rejection now instead of timing out silently.
				return statusErr(hresp.StatusCode, data)
			}
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		if hresp.StatusCode/100 != 2 {
			return statusErr(hresp.StatusCode, data)
		}
		if resp != nil {
			return json.Unmarshal(data, resp)
		}
		return nil
	}
}

// retryable reports whether a status is transient backpressure: 429 is
// admission control shedding load, 503 is the store degraded or
// draining — both send a Retry-After hint.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

func statusErr(code int, data []byte) error {
	var e ErrorResp
	msg := string(data)
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &StatusError{Code: code, Msg: msg}
}

// Create makes one object.
func (c *Client) Create(req *CreateReq) (*CreateResp, error) {
	var resp CreateResp
	if err := c.do("POST", "/v1/objects", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Append extends an object.
func (c *Client) Append(oid uint64, data []byte) (*AppendResp, error) {
	var resp AppendResp
	path := fmt.Sprintf("/v1/objects/%d/append", oid)
	if err := c.do("POST", path, &AppendReq{Data: data}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Read fetches n bytes at off (n=0 means up to the server's max).
func (c *Client) Read(oid, off, n uint64) ([]byte, error) {
	path := fmt.Sprintf("/v1/objects/%d/read?off=%d&n=%d", oid, off, n)
	hresp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(hresp.Body)
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode/100 != 2 {
		var e ErrorResp
		msg := string(data)
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, &StatusError{Code: hresp.StatusCode, Msg: msg}
	}
	return data, nil
}

// Stat returns object metadata.
func (c *Client) Stat(oid uint64) (*StatResp, error) {
	var resp StatResp
	if err := c.do("GET", fmt.Sprintf("/v1/objects/%d", oid), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Delete destroys an object.
func (c *Client) Delete(oid uint64) error {
	return c.do("DELETE", fmt.Sprintf("/v1/objects/%d", oid), nil, nil)
}

// Tag adds a name.
func (c *Client) Tag(oid uint64, tag, value string) error {
	path := fmt.Sprintf("/v1/objects/%d/tags", oid)
	return c.do("POST", path, &TagReq{Tag: tag, Value: value}, nil)
}

// Untag removes a name.
func (c *Client) Untag(oid uint64, tag, value string) error {
	path := fmt.Sprintf("/v1/objects/%d/tags", oid)
	return c.do("DELETE", path, &TagReq{Tag: tag, Value: value}, nil)
}

// Names lists an object's names.
func (c *Client) Names(oid uint64) (*NamesResp, error) {
	var resp NamesResp
	if err := c.do("GET", fmt.Sprintf("/v1/objects/%d/names", oid), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Find resolves a naming vector, paginated.
func (c *Client) Find(req *FindReq) (*OIDsResp, error) {
	var resp OIDsResp
	if err := c.do("POST", "/v1/find", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Query evaluates a boolean query tree, paginated.
func (c *Client) Query(req *QueryReq) (*OIDsResp, error) {
	var resp OIDsResp
	if err := c.do("POST", "/v1/query", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Search runs a full-text conjunction.
func (c *Client) Search(terms []string, page PageSpec) (*OIDsResp, error) {
	q := url.Values{}
	q.Set("q", strings.Join(terms, " "))
	if page.Limit > 0 {
		q.Set("limit", strconv.Itoa(page.Limit))
	}
	if page.After > 0 {
		q.Set("after", strconv.FormatUint(page.After, 10))
	}
	var resp OIDsResp
	if err := c.do("GET", "/v1/search?"+q.Encode(), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Explain profiles a conjunction.
func (c *Client) Explain(req *FindReq) (*ExplainResp, error) {
	var resp ExplainResp
	if err := c.do("POST", "/v1/explain", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch submits many mutations as one transaction.
func (c *Client) Batch(req *BatchReq) (*BatchResp, error) {
	var resp BatchResp
	if err := c.do("POST", "/v1/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the /debug/stats snapshot.
func (c *Client) Stats() (*Metrics, error) {
	var resp Metrics
	if err := c.do("GET", "/debug/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthy probes /healthz.
func (c *Client) Healthy() bool {
	return c.do("GET", "/healthz", nil, nil) == nil
}
