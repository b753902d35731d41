package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gpm"
)

// Client is a typed gpmd client. The zero value is not usable; construct
// with New. A Client is safe for concurrent use (it holds only an
// http.Client).
type Client struct {
	base string
	hc   *http.Client
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (custom
// transports, test servers).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the daemon at base, e.g.
// "http://127.0.0.1:8474".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Error is a non-2xx daemon response.
type Error struct {
	StatusCode int
	Message    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("gpmd: %d: %s", e.StatusCode, e.Message)
}

// patternText serialises p in the wire's .pattern text format.
func patternText(p *gpm.Pattern) (string, error) {
	var buf bytes.Buffer
	if err := gpm.WritePattern(&buf, p); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// timeoutMS derives the wire deadline from ctx so the server-side
// fixpoint is bounded by the same deadline the caller holds locally.
func timeoutMS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// drainClose reads the body to EOF before closing so the transport can
// reuse the keep-alive connection (a body closed with bytes unread —
// the encoder's trailing newline at minimum — forces a new TCP
// connection per request).
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

// post sends one JSON request and decodes a JSON response into out.
func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	resp, err := c.send(ctx, http.MethodPost, path, in)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues one request and returns the response with a 2xx status,
// converting error responses to *Error.
func (c *Client) send(ctx context.Context, method, path string, in interface{}) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer drainClose(resp.Body)
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
			er.Error = resp.Status
		}
		return nil, &Error{StatusCode: resp.StatusCode, Message: er.Error}
	}
	return resp, nil
}

// relation runs one relation-valued semantics.
func (c *Client) relation(ctx context.Context, path, graph string, p *gpm.Pattern) (*Relation, error) {
	text, err := patternText(p)
	if err != nil {
		return nil, err
	}
	var rel Relation
	err = c.post(ctx, path, QueryRequest{Graph: graph, Pattern: text, TimeoutMS: timeoutMS(ctx)}, &rel)
	if err != nil {
		return nil, err
	}
	return &rel, nil
}

// Match computes the maximum bounded-simulation match of p against the
// named graph — the remote [gpm.Engine.RelationQuery] with [gpm.RelMatch].
func (c *Client) Match(ctx context.Context, graph string, p *gpm.Pattern) (*Relation, error) {
	return c.relation(ctx, "/match", graph, p)
}

// Simulate computes plain graph simulation.
func (c *Client) Simulate(ctx context.Context, graph string, p *gpm.Pattern) (*Relation, error) {
	return c.relation(ctx, "/simulate", graph, p)
}

// DualSimulate computes the maximum dual simulation.
func (c *Client) DualSimulate(ctx context.Context, graph string, p *gpm.Pattern) (*Relation, error) {
	return c.relation(ctx, "/dual", graph, p)
}

// StrongSimulate computes strong simulation.
func (c *Client) StrongSimulate(ctx context.Context, graph string, p *gpm.Pattern) (*Relation, error) {
	return c.relation(ctx, "/strong", graph, p)
}

// EnumerateOptions bounds a remote enumeration or count.
type EnumerateOptions struct {
	Algo          string // "vf2" (default) | "ullmann"
	MaxEmbeddings int
	MaxSteps      int64
	NoPlan        bool // skip the server-side query planner
}

// Enumerate lists subgraph-isomorphism embeddings. A ctx deadline that
// expires mid-search still returns the partial enumeration (Complete ==
// false, Truncated set) — the same contract as [gpm.Engine.Enumerate].
func (c *Client) Enumerate(ctx context.Context, graph string, p *gpm.Pattern, opts EnumerateOptions) (*Enumeration, error) {
	text, err := patternText(p)
	if err != nil {
		return nil, err
	}
	var enum Enumeration
	err = c.post(ctx, "/enumerate", QueryRequest{
		Graph:         graph,
		Pattern:       text,
		TimeoutMS:     timeoutMS(ctx),
		Algo:          opts.Algo,
		MaxEmbeddings: opts.MaxEmbeddings,
		MaxSteps:      opts.MaxSteps,
		NoPlan:        opts.NoPlan,
	}, &enum)
	if err != nil {
		return nil, err
	}
	return &enum, nil
}

// Count reports the number of subgraph-isomorphism embeddings without
// materialising them, using the server's query planner (symmetry
// breaking and inclusion-exclusion counting) unless opts.NoPlan. The
// partial contract matches Enumerate: a ctx deadline that expires
// mid-search still returns the count found so far with Complete ==
// false and Truncated set. MaxEmbeddings is ignored — counting is
// always exhaustive.
func (c *Client) Count(ctx context.Context, graph string, p *gpm.Pattern, opts EnumerateOptions) (*Count, error) {
	text, err := patternText(p)
	if err != nil {
		return nil, err
	}
	var cnt Count
	err = c.post(ctx, "/count", QueryRequest{
		Graph:     graph,
		Pattern:   text,
		TimeoutMS: timeoutMS(ctx),
		Algo:      opts.Algo,
		MaxSteps:  opts.MaxSteps,
		NoPlan:    opts.NoPlan,
	}, &cnt)
	if err != nil {
		return nil, err
	}
	return &cnt, nil
}

// MatchBatch computes one bounded-simulation match per pattern, fanned
// across the server engine's workers. Results align positionally.
func (c *Client) MatchBatch(ctx context.Context, graph string, ps []*gpm.Pattern) ([]Relation, error) {
	texts := make([]string, len(ps))
	for i, p := range ps {
		text, err := patternText(p)
		if err != nil {
			return nil, err
		}
		texts[i] = text
	}
	var resp BatchResponse
	err := c.post(ctx, "/batch", BatchRequest{Graph: graph, Patterns: texts, TimeoutMS: timeoutMS(ctx)}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Watch opens an incremental watch session (semantics: "match", "sim",
// "dual" or "strong") and returns its initial state. The session lives
// server-side until closed with [Client.CloseWatch].
func (c *Client) Watch(ctx context.Context, graph string, p *gpm.Pattern, semantics string) (*WatchState, error) {
	text, err := patternText(p)
	if err != nil {
		return nil, err
	}
	var st WatchState
	err = c.post(ctx, "/watch", WatchRequest{Graph: graph, Pattern: text, Semantics: semantics}, &st)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// WatchSnapshot reads a session's current maintained relation.
func (c *Client) WatchSnapshot(ctx context.Context, id int64) (*WatchState, error) {
	resp, err := c.send(ctx, http.MethodGet, fmt.Sprintf("/watch/%d", id), nil)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	var st WatchState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// CloseWatch closes a watch session.
func (c *Client) CloseWatch(ctx context.Context, id int64) error {
	resp, err := c.send(ctx, http.MethodDelete, fmt.Sprintf("/watch/%d", id), nil)
	if err != nil {
		return err
	}
	drainClose(resp.Body)
	return nil
}

// Update applies edge updates to the named graph and returns the header
// plus one delta per watch session open on it, in session-open order,
// decoded from the server's NDJSON stream.
func (c *Client) Update(ctx context.Context, graph string, ups []gpm.Update) (*UpdateHeader, []WatchDelta, error) {
	var deltas []WatchDelta
	header, err := c.UpdateStream(ctx, graph, ups, func(d WatchDelta) error {
		deltas = append(deltas, d)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return header, deltas, nil
}

// UpdateStream is Update delivering each per-watcher delta to fn as it
// is decoded from the server's NDJSON stream, so a caller maintaining
// many sessions processes deltas as they arrive instead of buffering
// the whole response. A non-nil error from fn aborts the stream.
func (c *Client) UpdateStream(ctx context.Context, graph string, ups []gpm.Update, fn func(WatchDelta) error) (*UpdateHeader, error) {
	ops := make([]UpdateOp, len(ups))
	for i, u := range ups {
		op := "-"
		if u.Insert {
			op = "+"
		}
		ops[i] = UpdateOp{Op: op, U: u.U, V: u.V}
	}
	resp, err := c.send(ctx, http.MethodPost, "/update", UpdateRequest{Graph: graph, Updates: ops})
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 256<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	var header UpdateHeader
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		return nil, err
	}
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var d WatchDelta
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, err
		}
		if err := fn(d); err != nil {
			return &header, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &header, nil
}

// Graphs lists the graphs the daemon serves.
func (c *Client) Graphs(ctx context.Context) ([]GraphInfo, error) {
	resp, err := c.send(ctx, http.MethodGet, "/graphs", nil)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	var infos []GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Stats reads the daemon's aggregate query counters.
func (c *Client) Stats(ctx context.Context) (*ServerStats, error) {
	resp, err := c.send(ctx, http.MethodGet, "/stats", nil)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Healthy reports whether the daemon answers /healthz.
func (c *Client) Healthy(ctx context.Context) bool {
	resp, err := c.send(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return false
	}
	drainClose(resp.Body)
	return true
}
