// The service's unified JSON error envelope. Every non-2xx response body
// (and every in-band failure: batch items, stream final events) carries the
// same shape:
//
//	{"error": {"code": "...", "message": "...", "retryAfterSec": N}}
//
// Code is a stable machine-readable string from the ErrCode* set; Message
// is human-readable; RetryAfterSec mirrors the Retry-After header on shed
// requests (429/503) so NDJSON in-band errors — where headers are already
// sent — can carry the backoff too. client.StatusError parses exactly this
// envelope.

package service

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/hidden"
)

// Error codes of the service's error envelope.
const (
	// ErrCodeBadRequest: the request body failed validation (400).
	ErrCodeBadRequest = "bad_request"
	// ErrCodePayloadTooLarge: the body exceeded MaxBodyBytes (413).
	ErrCodePayloadTooLarge = "payload_too_large"
	// ErrCodeUnknownUpstream: the namespace is not registered (404).
	ErrCodeUnknownUpstream = "unknown_upstream"
	// ErrCodeUpstreamExists: POST /v1/upstreams with a taken name (409).
	ErrCodeUpstreamExists = "upstream_exists"
	// ErrCodeDefaultUpstream: DELETE of the default namespace (409).
	ErrCodeDefaultUpstream = "default_upstream"
	// ErrCodeCapacity: shed at the shared session-admission gate (429).
	ErrCodeCapacity = "capacity"
	// ErrCodeBudget: the client is over its upstream-query budget (429).
	ErrCodeBudget = "budget"
	// ErrCodeUpstreamRateLimited: the upstream itself answered 429.
	ErrCodeUpstreamRateLimited = "upstream_rate_limited"
	// ErrCodeUpstreamFailed: the upstream search failed (502).
	ErrCodeUpstreamFailed = "upstream_failed"
	// ErrCodeUpstreamDegraded: the probe guard exhausted its retries but the
	// upstream is still being tried (502).
	ErrCodeUpstreamDegraded = "upstream_degraded"
	// ErrCodeUpstreamDown: the probe guard's health state machine is open —
	// the upstream fails fast until its backoff expires (503 + Retry-After).
	ErrCodeUpstreamDown = "upstream_down"
	// ErrCodeDraining: the instance is draining for shutdown (503).
	ErrCodeDraining = "draining"
	// ErrCodeInternal: the response could not be encoded (500).
	ErrCodeInternal = "internal"
)

// ErrorInfo is the payload of the service's error envelope; see the file
// comment for the wire shape.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSec is the server's requested backoff in seconds, set on
	// shed requests (mirrors the Retry-After header).
	RetryAfterSec int64 `json:"retryAfterSec,omitempty"`
}

type errorEnvelope struct {
	Error *ErrorInfo `json:"error"`
}

// errorInfo builds the ErrorInfo of a failure with its envelope code.
func errorInfo(code string, err error) *ErrorInfo {
	return &ErrorInfo{Code: code, Message: err.Error()}
}

// upstreamStatus maps an upstream probe failure to its HTTP status and
// envelope code. Order matters: ErrRateLimited is a semantic answer (the
// guard passes it through untouched), down/degraded are guard verdicts,
// anything else is a generic upstream failure.
func upstreamStatus(err error) (status int, code string) {
	switch {
	case errors.Is(err, hidden.ErrRateLimited):
		return http.StatusTooManyRequests, ErrCodeUpstreamRateLimited
	case errors.Is(err, hidden.ErrUpstreamDown):
		return http.StatusServiceUnavailable, ErrCodeUpstreamDown
	case errors.Is(err, hidden.ErrUpstreamDegraded):
		return http.StatusBadGateway, ErrCodeUpstreamDegraded
	default:
		return http.StatusBadGateway, ErrCodeUpstreamFailed
	}
}

// httpError writes the standard error envelope.
func httpError(w http.ResponseWriter, status int, code string, err error) {
	writeWire(w, status, errorEnvelope{Error: errorInfo(code, err)})
}

// httpErrorRetry writes the envelope for a shed request, advertising the
// backoff both as the Retry-After header and in-envelope.
func httpErrorRetry(w http.ResponseWriter, status int, code string, err error, retryAfter time.Duration) {
	secs := ceilSeconds(retryAfter)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	info := errorInfo(code, err)
	info.RetryAfterSec = secs
	writeWire(w, status, errorEnvelope{Error: info})
}

// ceilSeconds rounds a backoff up to whole seconds, minimum 1 — clients
// must never retry before the advertised window actually resets.
func ceilSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
