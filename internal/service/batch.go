// Batched reranking: POST /v1/upstreams/{ns}/rerank/batch.
//
// A batch carries N independent rerank requests in one HTTP round trip and
// runs them concurrently against one namespace's engine. Because every
// item's probes route through that engine's one probe path, overlapping
// queries inside one batch (and across concurrent batches) deduplicate at
// probe granularity: identical in-flight probes are issued once and charged
// to the item that issued them, so a batch of near-duplicate queries costs
// far less upstream than the same requests issued serially by cold clients.
//
// Admission is atomic and weighted: a batch of N reserves N session slots
// (scaled by the namespace's admission weight) or is rejected whole with
// 429 — it can never be half-admitted past the shared bound. Items fail
// independently: each BatchItem carries its own status code and error
// envelope, and one bad item does not poison the rest.

package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// maxBatchItems bounds the items of one batch call.
const maxBatchItems = 64

// BatchRequest is the batch request body. The whole batch runs against the
// namespace the route names.
type BatchRequest struct {
	Requests []RerankRequest `json:"requests"`
}

// BatchItem is the outcome of one batch entry, in request order.
type BatchItem struct {
	// Status is the item's HTTP-equivalent status code (200 on success).
	Status int `json:"status"`
	// Error describes the failure when Status != 200, in the service's
	// standard error envelope shape.
	Error *ErrorInfo `json:"error,omitempty"`
	// Response is the item's result when Status == 200.
	Response *RerankResponse `json:"response,omitempty"`
}

// BatchResponse is the batch response body.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
	// QueriesIssued is the whole batch's upstream cost: the sum of the
	// items' ledgers. Probes deduplicated across items count once.
	QueriesIssued int64 `json:"queriesIssued"`
	// EngineQueries is the namespace engine's lifetime upstream query count.
	EngineQueries int64 `json:"engineQueries"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	if len(req.Requests) == 0 {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Requests) > maxBatchItems {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("batch of %d exceeds the %d-item limit", len(req.Requests), maxBatchItems))
		return
	}
	release, charge, ok := s.admit(w, r, t, len(req.Requests))
	if !ok {
		return
	}
	defer release()

	setEpochHeader(w, t)
	resp := s.rerankBatch(t, req)
	charge(resp.QueriesIssued)
	writeWire(w, http.StatusOK, resp)
}

// RerankBatch runs every request of the batch concurrently against the
// default namespace and returns the per-item outcomes in request order.
// Exported for in-process callers; like Rerank it bypasses the HTTP edge's
// admission control.
func (s *Server) RerankBatch(req BatchRequest) *BatchResponse {
	t, ok := s.tenantFor("")
	if !ok {
		resp := &BatchResponse{Items: make([]BatchItem, len(req.Requests))}
		info := errorInfo(ErrCodeUnknownUpstream, unknownUpstreamErr(""))
		for i := range resp.Items {
			resp.Items[i] = BatchItem{Status: http.StatusNotFound, Error: info}
		}
		return resp
	}
	return s.rerankBatch(t, req)
}

func (s *Server) rerankBatch(t *tenant, req BatchRequest) *BatchResponse {
	t.batchRequests.Add(1)
	t.batchItems.Add(int64(len(req.Requests)))
	resp := &BatchResponse{Items: make([]BatchItem, len(req.Requests))}
	var wg sync.WaitGroup
	var issued atomic.Int64
	for i := range req.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, cost, status, code, err := s.rerank(t, req.Requests[i])
			issued.Add(cost)
			if err != nil {
				resp.Items[i] = BatchItem{Status: status, Error: errorInfo(code, err)}
				return
			}
			resp.Items[i] = BatchItem{Status: http.StatusOK, Response: r}
		}(i)
	}
	wg.Wait()
	resp.QueriesIssued = issued.Load()
	resp.EngineQueries = t.engine().Queries()
	return resp
}
