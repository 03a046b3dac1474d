// Full service pipeline in one process: a hiddendb HTTP server (playing the
// role of a real web database), a rerankd HTTP service dialed to it over the
// network, and a client issuing reranked queries — the complete third-party
// deployment of the paper's title. The last act federates a second web
// database into the same service as its own knowledge namespace via the
// registry API.
//
//	go run ./examples/service
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"repro/internal/dataset"
	"repro/internal/service"
)

func main() {
	// 1. The "web database": Blue Nile generator behind a top-30 HTTP
	//    search interface with its proprietary ranking.
	ds := dataset.BlueNile(99, 15000)
	upstream := httptest.NewServer(service.HiddenDBHandler(ds.DB()))
	defer upstream.Close()
	fmt.Printf("hiddendb serving %d diamonds at %s (k=30)\n", len(ds.Tuples), upstream.URL)

	// 2. The third-party reranking service, which only knows the URL.
	remote, err := service.DialRemote(upstream.URL, upstream.Client())
	if err != nil {
		log.Fatal(err)
	}
	api := httptest.NewServer(service.NewServer(remote, len(ds.Tuples)).Handler())
	defer api.Close()
	fmt.Printf("rerankd proxying it at %s\n\n", api.URL)

	// 3. A user with a preference the site does not support.
	client := service.NewClientWith(api.URL, service.WithHTTPClient(api.Client()))
	resp, err := client.Rerank(service.RerankRequest{
		Filters: map[string]string{"Shape": "Princess"},
		Ranking: service.RankingSpec{
			Kind:    "linear",
			Attrs:   []string{"Depth", "Table"},
			Weights: []float64{1, 1},
		},
		H: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-5 princess stones by depth+table:")
	for i, t := range resp.Tuples {
		fmt.Printf("  %d. #%-6d depth=%.3f table=%.3f $%.0f (score %.4f)\n",
			i+1, t.ID, t.Ord["Depth"], t.Ord["Table"], t.Ord["Price"], t.Score)
	}
	fmt.Printf("upstream searches spent on this request: %d\n\n", resp.QueriesIssued)

	// 4. Repeat it — the service's history makes the second request
	//    dramatically cheaper.
	resp2, err := client.Rerank(service.RerankRequest{
		Filters: map[string]string{"Shape": "Princess"},
		Ranking: service.RankingSpec{
			Kind:    "linear",
			Attrs:   []string{"Depth", "Table"},
			Weights: []float64{1, 1},
		},
		H: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same request again: %d upstream searches (history at work)\n", resp2.QueriesIssued)

	st, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	us := st.Upstreams[st.DefaultUpstream]
	fmt.Printf("service stats: %d requests, %d lifetime upstream queries, %d cached tuples\n\n",
		us.Requests, us.EngineQueries, us.HistoryTuples)

	// 5. Federation: a second web database joins the SAME service as its own
	//    namespace — isolated ledger, history and caches — via the registry
	//    API, no restart involved.
	autos := dataset.YahooAutos(7, 10000)
	upstream2 := httptest.NewServer(service.HiddenDBHandler(autos.DB()))
	defer upstream2.Close()
	info, err := client.RegisterUpstream(service.UpstreamConfig{
		Name: "autos", URL: upstream2.URL, N: len(autos.Tuples),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered namespace %q (k=%d, %d attributes)\n", info.Name, info.Schema.K, len(info.Schema.Attrs))

	autosClient := service.NewClientWith(api.URL,
		service.WithHTTPClient(api.Client()), service.WithUpstream("autos"))
	resp3, err := autosClient.Rerank(service.RerankRequest{
		Ranking: service.RankingSpec{Kind: "single", Attrs: []string{"Mileage"}},
		H:       3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 cars by lowest mileage, from the federated namespace:")
	for i, t := range resp3.Tuples {
		fmt.Printf("  %d. #%-6d mileage=%.0f $%.0f\n", i+1, t.ID, t.Ord["Mileage"], t.Ord["Price"])
	}
	ups, err := client.Upstreams()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("namespaces now served: %d (default %q)\n", len(ups.Upstreams), ups.Default)
}
