// Client is the Go client for the reranking service API.
//
// A Client is configured with functional options and optionally pinned to
// one upstream namespace:
//
//	c := service.NewClientWith(baseURL,
//		service.WithUpstream("autos"),
//		service.WithClientID("crawler-7"),
//		service.WithTimeout(2*time.Minute))
//
// Without WithUpstream the client addresses the DefaultUpstream namespace.

package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Client talks to a rerankd instance.
type Client struct {
	baseURL  string
	http     *http.Client
	timeout  time.Duration
	upstream string
	// ClientID, when set, is sent as the X-Client-ID header so the
	// server's per-client budget windows attribute cost to this client.
	// Prefer WithClientID; the field stays exported for back-compat.
	ClientID string
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient uses hc for requests (nil is ignored). Combine with
// WithTimeout to bound requests without building an *http.Client yourself.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.http = hc
		}
	}
}

// WithTimeout bounds every request (default 60s). Applied to a copy of the
// configured HTTP client, so a shared client passed via WithHTTPClient is
// not mutated.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithClientID attributes this client's upstream cost to id via the
// X-Client-ID header (the server's per-client budget key).
func WithClientID(id string) ClientOption {
	return func(c *Client) { c.ClientID = id }
}

// WithUpstream pins the client to one upstream namespace (default
// DefaultUpstream): requests use its /v1/upstreams/{ns}/... routes.
func WithUpstream(namespace string) ClientOption {
	return func(c *Client) { c.upstream = namespace }
}

// NewClientWith builds a client for the service at baseURL.
func NewClientWith(baseURL string, opts ...ClientOption) *Client {
	c := &Client{baseURL: baseURL, upstream: DefaultUpstream}
	for _, opt := range opts {
		opt(c)
	}
	if c.http == nil {
		c.http = &http.Client{Timeout: 60 * time.Second}
	}
	if c.timeout > 0 {
		hc := *c.http
		hc.Timeout = c.timeout
		c.http = &hc
	}
	return c
}

// apiPath builds the request path for suffix ("/rerank", "/schema", ...)
// under the client's namespace.
func (c *Client) apiPath(suffix string) string {
	return "/v1/upstreams/" + url.PathEscape(c.upstream) + suffix
}

// StatusError is a non-200 service answer: the parsed error envelope
// ({"error":{code,message,retryAfterSec}}). Shed requests (429/503) carry
// RetryAfter, the server's requested backoff.
type StatusError struct {
	Status int
	// Code is the envelope's machine-readable error code (see ErrCode*).
	Code       string
	Msg        string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	switch {
	case e.Code != "" && e.Msg != "":
		return fmt.Sprintf("status %d (%s): %s", e.Status, e.Code, e.Msg)
	case e.Msg != "":
		return fmt.Sprintf("status %d: %s", e.Status, e.Msg)
	case e.Code != "":
		return fmt.Sprintf("status %d (%s)", e.Status, e.Code)
	default:
		return fmt.Sprintf("status %d", e.Status)
	}
}

// statusError drains a non-200 response into a *StatusError.
func statusError(resp *http.Response) *StatusError {
	var env errorEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	se := &StatusError{Status: resp.StatusCode}
	if env.Error != nil {
		se.Code, se.Msg = env.Error.Code, env.Error.Message
		se.RetryAfter = time.Duration(env.Error.RetryAfterSec) * time.Second
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		se.RetryAfter = time.Duration(secs) * time.Second
	}
	return se
}

// streamStatusError lifts a final stream event's in-band error envelope
// into the same typed error a non-200 response produces.
func streamStatusError(ev *StreamEvent) *StatusError {
	status := ev.Status
	if status == 0 {
		status = http.StatusBadGateway
	}
	se := &StatusError{Status: status}
	if ev.Error != nil {
		se.Code, se.Msg = ev.Error.Code, ev.Error.Message
		se.RetryAfter = time.Duration(ev.Error.RetryAfterSec) * time.Second
	}
	return se
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.ClientID != "" {
		req.Header.Set(ClientIDHeader, c.ClientID)
	}
	return c.http.Do(req)
}

func (c *Client) post(path string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

// call sends one request — a GET when in is nil, else a POST of in as JSON
// — and decodes an answer with status want into out.
func (c *Client) call(path, what string, in any, want int, out any) error {
	var resp *http.Response
	var err error
	if in == nil {
		var req *http.Request
		if req, err = http.NewRequest(http.MethodGet, c.baseURL+path, nil); err != nil {
			return err
		}
		resp, err = c.do(req)
	} else {
		resp, err = c.post(path, in)
	}
	if err != nil {
		return fmt.Errorf("%s request: %w", what, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s request: %w", what, statusError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	return nil
}

// Rerank submits one reranking request to the client's namespace.
func (c *Client) Rerank(req RerankRequest) (*RerankResponse, error) {
	var out RerankResponse
	if err := c.call(c.apiPath("/rerank"), "rerank", req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RerankBatch submits a batch of requests in one round trip. The returned
// response carries per-item outcomes in request order; an error is only
// returned when the batch itself was rejected (bad request, 429, 503).
func (c *Client) RerankBatch(req BatchRequest) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.call(c.apiPath("/rerank/batch"), "batch", req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RerankStream submits a streaming request and calls fn for every NDJSON
// event as it arrives, final Done event included. fn returning false stops
// reading and disconnects (the server releases the session at the next
// tuple boundary). The final event is also returned for convenience.
func (c *Client) RerankStream(req RerankRequest, fn func(StreamEvent) bool) (*StreamEvent, error) {
	resp, err := c.post(c.apiPath("/rerank/stream"), req)
	if err != nil {
		return nil, fmt.Errorf("stream request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream request: %w", statusError(resp))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("decode stream event: %w", err)
		}
		cont := fn == nil || fn(ev)
		if ev.Done {
			// The final event's error outranks fn's stop signal — a
			// failed stream must never return a nil error.
			if ev.Error != nil {
				// In-band failure: surface it with the same typed
				// status a one-shot request would have returned.
				return &ev, fmt.Errorf("stream failed: %w", streamStatusError(&ev))
			}
			return &ev, nil
		}
		if !cont {
			return &ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read stream: %w", err)
	}
	return nil, fmt.Errorf("stream ended without a final event")
}

// Stats fetches the service-wide statistics (the service-level counters and
// every namespace's in Upstreams).
func (c *Client) Stats() (*Stats, error) {
	var out Stats
	if err := c.call("/v1/stats", "stats", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Schema fetches the upstream search schema of the client's namespace.
// Unknown namespaces yield a *StatusError with Status 404.
func (c *Client) Schema() (*SchemaResponse, error) {
	var out SchemaResponse
	if err := c.call(c.apiPath("/schema"), "schema", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Upstreams lists the registered upstream namespaces with their full
// descriptors: knowledge epoch, probe-guard health, last sentinel pass, and
// stale-region count alongside the registration fields.
func (c *Client) Upstreams() (*UpstreamsResponse, error) {
	var out UpstreamsResponse
	if err := c.call("/v1/upstreams", "upstreams", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Upstream fetches one registered upstream's descriptor.
func (c *Client) UpstreamInfo(name string) (*UpstreamInfo, error) {
	var out UpstreamInfo
	if err := c.call("/v1/upstreams/"+url.PathEscape(name), "upstream", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Revalidate triggers an immediate sentinel pass against one namespace's
// upstream and reports the resulting epoch state.
func (c *Client) Revalidate(name string) (*RevalidateResponse, error) {
	var out RevalidateResponse
	if err := c.call("/v1/upstreams/"+url.PathEscape(name)+"/revalidate", "revalidate", struct{}{}, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterUpstream registers a new upstream namespace on the server (POST
// /v1/upstreams): the server dials cfg.URL and builds a fresh engine for it.
func (c *Client) RegisterUpstream(cfg UpstreamConfig) (*UpstreamInfo, error) {
	var out UpstreamInfo
	if err := c.call("/v1/upstreams", "register upstream", cfg, http.StatusCreated, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeregisterUpstream removes an upstream namespace from the server.
func (c *Client) DeregisterUpstream(name string) error {
	req, err := http.NewRequest(http.MethodDelete, c.baseURL+"/v1/upstreams/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return fmt.Errorf("deregister upstream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("deregister upstream: %w", statusError(resp))
	}
	return nil
}
