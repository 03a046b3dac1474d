package service

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentRerankRequests hammers one service instance from many
// goroutines. There is no server-wide lock anymore: requests run
// concurrently, each in its own engine session, over the shared knowledge
// layer. Run with -race. Every response must be exact, the stats must
// account for every request, and the per-request QueriesIssued ledgers must
// partition the engine's total (deduplicated probes count once).
func TestConcurrentRerankRequests(t *testing.T) {
	client, _ := pipeline(t, 1000, 0)
	shapes := []string{"Round", "Princess", "Cushion", "Oval"}
	var wg sync.WaitGroup
	var issued atomic.Int64
	errs := make(chan error, 64)
	// A scraper reads /v1/stats and /metrics throughout, so the counter
	// snapshot runs beside live writers.
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.Stats(); err != nil {
				errs <- err
				return
			}
			resp, err := client.http.Get(client.baseURL + "/metrics")
			if err != nil {
				errs <- err
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("GET /metrics: status %d, %v", resp.StatusCode, err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := client.Rerank(RerankRequest{
					Filters: map[string]string{"Shape": shapes[(g+i)%len(shapes)]},
					Ranking: RankingSpec{Kind: "linear",
						Attrs: []string{"Depth", "Table"}, Weights: []float64{1, 1}},
					H: 3,
				})
				if err != nil {
					errs <- err
					return
				}
				issued.Add(resp.QueriesIssued)
				// Scores must be nondecreasing within each response.
				for j := 1; j < len(resp.Tuples); j++ {
					if resp.Tuples[j].Score < resp.Tuples[j-1].Score {
						errs <- fmt.Errorf("response not sorted: %v", resp.Tuples)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	us := st.Upstreams[DefaultUpstream]
	if us.Requests != 32 {
		t.Fatalf("stats saw %d requests, want 32", us.Requests)
	}
	if us.EngineQueries != issued.Load() {
		t.Fatalf("per-request ledgers sum to %d, engine counted %d",
			issued.Load(), us.EngineQueries)
	}
	if issued.Load() == 0 {
		t.Fatal("no upstream queries issued at all")
	}
}
