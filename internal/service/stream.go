// Streaming reranking: POST /v1/upstreams/{ns}/rerank/stream.
//
// The engine's Get-Next interface (§2.2) is incremental by construction:
// the cursor proves each next-best tuple correct before looking for the
// following one. The plain rerank endpoint hides that — a client waits
// for the whole search before seeing tuple #1. This endpoint streams the
// cursor instead: the response is NDJSON, one StreamEvent per line, flushed
// as each tuple is produced, so the first answer reaches the client while
// the search for the rest is still probing the upstream. Each tuple event
// carries the session's cumulative upstream cost at emission time, making
// the cost-per-answer curve visible to the client in real time.
//
// A disconnecting client cancels the stream at the next tuple boundary: the
// handler observes the request context between Get-Next calls, stops the
// search, and releases its admission slot — abandoned streams do not leak
// capacity. Already-issued probes stay in the namespace's history/probe
// caches, so a cancelled stream's upstream spend still benefits later
// requests.

package service

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/jsonwire"
)

// StreamEvent is one NDJSON line of a stream response. Tuple
// events carry Tuple and CumQueries; the final event has Done=true and the
// same summary fields RerankResponse reports. A mid-stream failure ends the
// stream with a final event whose Error is set (the HTTP status is already
// 200 by then — NDJSON errors are in-band).
type StreamEvent struct {
	Tuple *TupleJSON `json:"tuple,omitempty"`
	// CumQueries is the session's cumulative upstream-query cost at the
	// moment this event was emitted.
	CumQueries int64 `json:"cumQueries"`
	// Done marks the final event of the stream.
	Done      bool `json:"done,omitempty"`
	Exhausted bool `json:"exhausted,omitempty"`
	// QueriesIssued / EngineQueries mirror RerankResponse on the final
	// event.
	QueriesIssued int64 `json:"queriesIssued,omitempty"`
	EngineQueries int64 `json:"engineQueries,omitempty"`
	// Error and Status report an in-band failure on the final event: Error
	// is the same envelope payload a non-2xx response body carries, and
	// Status is the HTTP status the same failure would have produced on
	// the rerank route (429 for upstream rate limiting, 502 or 503 when the
	// upstream failed or its guard holds it degraded or down), so
	// clients can classify mid-stream failures exactly like one-shot ones.
	Error  *ErrorInfo `json:"error,omitempty"`
	Status int        `json:"status,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req RerankRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	schema := t.db.Schema()
	q, rk, variant, err := buildRequest(schema, &req)
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	release, charge, ok := s.admit(w, r, t, 1)
	if !ok {
		return
	}
	defer release()

	t.streamRequests.Add(1)
	eng := t.engine()
	sess := eng.NewSession()
	defer func() { charge(sess.Queries()) }()
	cur, err := sess.NewCursor(q, rk, variant)
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}

	setEpochHeader(w, t)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Per-event write deadlines (the server's WriteTimeout is 0 so streams
	// may run as long as the search): a client that stops READING stalls
	// its next write past StreamWriteTimeout, the write errors, the stream
	// ends and the admission slot frees. Stalled readers cannot pin
	// capacity forever. The deadline is cleared before the handler returns
	// so a reused keep-alive connection is not poisoned.
	rc := http.NewResponseController(w)
	defer func() { _ = rc.SetWriteDeadline(time.Time{}) }()
	e := jsonwire.Get()
	defer jsonwire.Put(e)
	// emit writes one event and reports whether the stream goes on. An
	// event that cannot be encoded (a non-finite score) is replaced by a
	// final in-band 500, since the status line is already sent.
	emit := func(ev StreamEvent) bool {
		e.Buf, e.Err = e.Buf[:0], nil
		ev.appendJSON(e)
		failed := e.Err != nil
		if failed {
			err := fmt.Errorf("encode event: %w", e.Err)
			e.Buf, e.Err = e.Buf[:0], nil
			ev = StreamEvent{Done: true, CumQueries: ev.CumQueries, Status: http.StatusInternalServerError, Error: errorInfo(ErrCodeInternal, err)}
			ev.appendJSON(e)
		}
		e.Buf = append(e.Buf, '\n')
		_ = rc.SetWriteDeadline(time.Now().Add(s.opts.StreamWriteTimeout))
		if _, err := w.Write(e.Buf); err != nil {
			return false // client went away; stop the search
		}
		_ = rc.Flush()
		return !failed
	}

	ctx := r.Context()
	emitted, exhausted := 0, false
	var tj TupleJSON // reused across events; emit encodes it before the next fill
	for emitted < req.H {
		// A disconnected client is detected at tuple boundaries: the
		// search stops, the deferred release frees the admission slot.
		if ctx.Err() != nil {
			return
		}
		tp, ok, err := cur.Next()
		if err != nil {
			// In-band, and classified exactly as the rerank route would.
			status, code := upstreamStatus(err)
			if code == ErrCodeUpstreamFailed {
				err = fmt.Errorf("upstream search failed: %w", err)
			}
			emit(StreamEvent{Done: true, CumQueries: sess.Queries(), Status: status, Error: errorInfo(code, err)})
			return
		}
		if !ok {
			exhausted = true
			break
		}
		toJSONInto(schema, rk, tp, &tj)
		if !emit(StreamEvent{Tuple: &tj, CumQueries: sess.Queries()}) {
			return
		}
		emitted++
		t.streamTuples.Add(1)
	}
	emit(StreamEvent{
		Done:          true,
		Exhausted:     exhausted,
		CumQueries:    sess.Queries(),
		QueriesIssued: sess.Queries(),
		EngineQueries: eng.Queries(),
	})
}
