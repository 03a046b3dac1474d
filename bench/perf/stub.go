package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hidden"
	"repro/internal/service"
)

// stub is the benchmark's upstream: the repo's hiddendb handler behind a
// middleware that counts search queries exactly, answers a repeated query
// from a memo of encoded answers, and can sleep a fixed delay per query to
// model upstream RTT.
//
// hidden.DB.TopK walks the corpus with a map-driven predicate, ~0.8 ms per
// query; left alone the stub would use more CPU than the service under
// test. So a first-time range-only query is answered by rankScan, a column
// scan that returns byte-for-byte what the hiddendb handler would, and only
// what rankScan declines reaches the handler.
//
// The memo is keyed by the canonical form of the request (ranges sorted by
// attribute), because RemoteDB encodes ranges in map order and the same
// logical probe must count as the same probe.
type stub struct {
	inner http.Handler
	scan  *rankScan
	delay time.Duration
	rec   *recorder // nil outside the traced run

	mu   sync.Mutex
	memo map[string]memoEntry

	queries   atomic.Int64 // search requests answered
	memoHits  atomic.Int64 // of those, answered from the memo
	overflows atomic.Int64 // of those, answers with overflow=true
	respBytes atomic.Int64 // answer bytes written
}

type memoEntry struct {
	body     []byte
	overflow bool
}

func newStub(db *hidden.DB, delay time.Duration, rec *recorder) *stub {
	return &stub{
		inner: service.HiddenDBHandler(db),
		scan:  newRankScan(db),
		delay: delay,
		rec:   rec,
		memo:  make(map[string]memoEntry),
	}
}

// stubCounts is a point-in-time copy of the stub's counters.
type stubCounts struct {
	queries, memoHits, overflows, respBytes int64
}

func (s *stub) counts() stubCounts {
	return stubCounts{
		queries:   s.queries.Load(),
		memoHits:  s.memoHits.Load(),
		overflows: s.overflows.Load(),
		respBytes: s.respBytes.Load(),
	}
}

func (c stubCounts) sub(o stubCounts) stubCounts {
	return stubCounts{
		queries:   c.queries - o.queries,
		memoHits:  c.memoHits - o.memoHits,
		overflows: c.overflows - o.overflows,
		respBytes: c.respBytes - o.respBytes,
	}
}

// canonicalKey decodes a search request and renders it with its ranges in
// attribute order.
func canonicalKey(body []byte) (service.SearchRequest, string, error) {
	var req service.SearchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, "", err
	}
	sort.SliceStable(req.Ranges, func(i, j int) bool { return req.Ranges[i].Attr < req.Ranges[j].Attr })
	key, err := json.Marshal(req)
	return req, string(key), err
}

// rankScan answers range-only searches over columns held in system-rank
// order, with every tuple's wire form encoded once.
type rankScan struct {
	k     int
	cols  map[string][]float64 // ordinal attribute -> values in rank order
	wire  [][]byte             // encoded service.WireTuple, in rank order
	total int
}

func newRankScan(db *hidden.DB) *rankScan {
	schema := db.Schema()
	tuples := db.All() // system-rank order
	rs := &rankScan{k: db.K(), cols: make(map[string][]float64), wire: make([][]byte, len(tuples)), total: len(tuples)}
	for _, a := range schema.OrdinalIndexes() {
		col := make([]float64, len(tuples))
		for i, t := range tuples {
			col[i] = t.Ord[a]
		}
		rs.cols[schema.Attr(a).Name] = col
	}
	for i, t := range tuples {
		wt := service.WireTuple{ID: t.ID, Ord: make(map[string]float64), Cat: t.Cat}
		for _, a := range schema.OrdinalIndexes() {
			wt.Ord[schema.Attr(a).Name] = t.Ord[a]
		}
		enc, err := json.Marshal(wt)
		if err != nil {
			panic(err) // a float map cannot fail to encode
		}
		rs.wire[i] = enc
	}
	return rs
}

// search returns the encoded answer to req, or ok=false for a request it
// does not handle (categorical filters, unknown attributes).
func (rs *rankScan) search(req service.SearchRequest) (body []byte, overflow, ok bool) {
	if len(req.Filters) > 0 {
		return nil, false, false
	}
	cols := make([][]float64, len(req.Ranges))
	for i, r := range req.Ranges {
		if cols[i], ok = rs.cols[r.Attr]; !ok {
			return nil, false, false
		}
	}
	var buf bytes.Buffer
	buf.WriteString(`{"tuples":`)
	n := 0
scan:
	for row := 0; row < rs.total; row++ {
		for i, r := range req.Ranges {
			v := cols[i][row]
			if r.Min != nil && (v < *r.Min || (r.MinOpen && v == *r.Min)) {
				continue scan
			}
			if r.Max != nil && (v > *r.Max || (r.MaxOpen && v == *r.Max)) {
				continue scan
			}
		}
		if n == rs.k {
			overflow = true
			break
		}
		if n == 0 {
			buf.WriteByte('[')
		} else {
			buf.WriteByte(',')
		}
		buf.Write(rs.wire[row])
		n++
	}
	if n == 0 {
		buf.WriteString("null")
	} else {
		buf.WriteByte(']')
	}
	if overflow {
		buf.WriteString(`,"overflow":true}` + "\n")
	} else {
		buf.WriteString(`,"overflow":false}` + "\n")
	}
	return buf.Bytes(), overflow, true
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/search" {
		s.inner.ServeHTTP(w, r)
		return
	}
	var sp spanToken
	if s.rec != nil {
		sp = s.rec.begin("hidden.serve")
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, key, err := canonicalKey(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	ent, hit := s.memo[key]
	s.mu.Unlock()
	if !hit {
		if enc, overflow, ok := s.scan.search(req); ok {
			ent = memoEntry{body: enc, overflow: overflow}
		} else {
			// Buffer the handler's answer so it can be memoised.
			cw := httptest.NewRecorder()
			r2 := r.Clone(r.Context())
			r2.Body = io.NopCloser(bytes.NewReader(body))
			s.inner.ServeHTTP(cw, r2)
			if cw.Code != http.StatusOK {
				w.WriteHeader(cw.Code)
				_, _ = w.Write(cw.Body.Bytes())
				return
			}
			ent = memoEntry{body: cw.Body.Bytes(), overflow: bytes.Contains(cw.Body.Bytes(), []byte(`"overflow":true`))}
		}
		s.mu.Lock()
		s.memo[key] = ent
		s.mu.Unlock()
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.queries.Add(1)
	if hit {
		s.memoHits.Add(1)
	}
	if ent.overflow {
		s.overflows.Add(1)
	}
	s.respBytes.Add(int64(len(ent.body)))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(ent.body)
	if s.rec != nil {
		s.rec.end(sp)
	}
}

// listener serves h on a free loopback port until closed.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

func serveLoopback(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns once close() closes the listener
	}()
	return l, nil
}

// close stops the server, dropping open connections, and waits for it.
func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}
