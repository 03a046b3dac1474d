package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/types"
)

// FuzzBuildRequest feeds arbitrary bodies through the decoder and compiler
// every rerank route shares. Neither may panic, and a request they accept is
// one the engine can run: 1 ≤ h ≤ 10000, no empty range, and a ranking over
// ordinal attributes only.
func FuzzBuildRequest(f *testing.F) {
	for _, seed := range []string{
		`{"ranking":{"kind":"linear","attrs":["Price","Carat"],"weights":[1,1]},"h":5}`,
		`{"ranges":[{"attr":"Price","min":1000,"max":5000,"maxOpen":true}],"filters":{"Shape":"Round"},"ranking":{"kind":"single","attrs":["Depth"],"desc":true},"algorithm":"binary"}`,
		`{"ranges":[{"attr":"Carat","min":1,"max":2},{"attr":"Carat","min":3}],"ranking":{"kind":"ratio","attrs":["Price","Carat"]},"h":10001}`,
		`{"ranges":[{"attr":"Carat","min":2,"max":2,"minOpen":true}],"ranking":{"kind":"single","attrs":["Shape"]},"algorithm":"ta","h":-1}`,
		`{"ranking":{"kind":"linear","attrs":["Price","Price"],"weights":[1,0]}}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	ds := dataset.BlueNile(7, 50)
	srv := NewServer(ds.DB(), len(ds.Tuples))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RerankRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/upstreams/default/rerank", bytes.NewReader(body))
		if !srv.decodeBody(httptest.NewRecorder(), r, &req) {
			return
		}
		q, rk, _, err := buildRequest(ds.Schema, &req)
		if err != nil {
			return
		}
		if req.H < 1 || req.H > 10_000 {
			t.Fatalf("accepted h = %d", req.H)
		}
		for _, r := range q.Ranges() {
			if r.Iv.Empty() {
				t.Fatalf("accepted an empty range on %s: %v", ds.Schema.Attr(r.Attr).Name, r.Iv)
			}
		}
		for _, a := range rk.Attrs() {
			if ds.Schema.Attr(a).Kind != types.Ordinal {
				t.Fatalf("accepted a ranking over %s", ds.Schema.Attr(a).Name)
			}
		}
	})
}
