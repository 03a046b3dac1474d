// Command rerankd runs the query reranking service: a third-party HTTP
// daemon that answers user queries under arbitrary monotone ranking
// functions using nothing but upstream top-k search interfaces.
//
// One process federates any number of upstreams, each as an isolated
// knowledge namespace. -upstream is repeatable and takes either a bare URL
// (registered as the "default" namespace) or name=URL:
//
//	rerankd -upstream http://localhost:8081 -addr :8080
//	rerankd -upstream diamonds=http://localhost:8081 \
//	        -upstream autos=http://localhost:8082 -addr :8080
//	rerankd -dataset bluenile -n 20000 -addr :8080
//
// The first -upstream becomes the default namespace; every namespace is
// served at /v1/upstreams/{name}/..., and more can be registered at runtime
// via POST /v1/upstreams. Then:
//
//	curl -s localhost:8080/v1/upstreams
//	curl -s localhost:8080/v1/upstreams/diamonds/rerank -d '{
//	  "ranking": {"kind":"ratio","attrs":["Price","Carat"]},
//	  "filters": {"Shape":"Round"},
//	  "h": 5}'
//
// Production knobs: -max-sessions bounds in-flight sessions across all
// namespaces (excess gets 429 + Retry-After), -client-budget/
// -client-budget-window meter upstream queries per X-Client-ID, and
// SIGTERM/SIGINT triggers a graceful drain — admission stops (healthz flips
// to 503), in-flight requests finish within -drain-timeout, and with
// -data-dir set a final checkpoint commits everything learned so the next
// start is warm. See docs/operations.md and docs/api.md.
//
// Persistence: -data-dir enables the segment/journal store, the only way
// knowledge reaches disk — every namespace checkpoints incrementally into
// its own data-dir/<name>/ store every -checkpoint-interval while serving,
// so even a kill -9 restarts warm up to the last committed checkpoint. A
// portable export of a namespace is a copy of its subdirectory taken after
// a drain; see docs/persistence.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/acquire"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/service"
)

// upstreamFlag accumulates repeated -upstream values, each "URL" or
// "name=URL".
type upstreamFlag []service.UpstreamConfig

func (u *upstreamFlag) String() string {
	parts := make([]string, len(*u))
	for i, cfg := range *u {
		parts[i] = cfg.Name + "=" + cfg.URL
	}
	return strings.Join(parts, ",")
}

func (u *upstreamFlag) Set(v string) error {
	name, url := service.DefaultUpstream, v
	// "name=URL" form: only when the part before the first '=' looks like a
	// name, not a URL fragment (bare URLs may carry '=' in their query).
	if i := strings.Index(v, "="); i >= 0 && !strings.ContainsAny(v[:i], ":/") {
		name, url = v[:i], v[i+1:]
	}
	if url == "" {
		return fmt.Errorf("empty upstream URL in %q", v)
	}
	if err := service.ValidateNamespaceName(name); err != nil {
		return err
	}
	for _, cfg := range *u {
		if cfg.Name == name {
			return fmt.Errorf("duplicate upstream name %q", name)
		}
	}
	*u = append(*u, service.UpstreamConfig{Name: name, URL: url})
	return nil
}

func main() {
	var upstreams upstreamFlag
	flag.Var(&upstreams, "upstream", "upstream hiddendb search endpoint, URL or name=URL (repeatable; the first becomes the default namespace)")
	var (
		name         = flag.String("dataset", "", "in-process dataset instead of -upstream: dot, bluenile, yahooautos")
		n            = flag.Int("n", 20000, "tuples for the in-process dataset")
		seed         = flag.Int64("seed", 160205100, "generator seed for the in-process dataset")
		sizeHint     = flag.Int("size-hint", 0, "upstream size estimate for dense-index thresholds (0 = n)")
		addr         = flag.String("addr", ":8080", "listen address")
		dataDir      = flag.String("data-dir", "", "segment/journal persistence directory: each namespace replays and checkpoints its own <dir>/<name>/ store (crash-safe)")
		ckptInterval = flag.Duration("checkpoint-interval", 15*time.Second, "background checkpoint period for -data-dir (0 = checkpoint only at drain)")
		cache        = flag.Int("probe-cache", 0, "complete probe answers kept per namespace, as facts over the history (0 = default 16384, negative disables the cache)")
		width        = flag.Int("search-parallelism", 1, "speculative width W of the MD search: up to W region resolutions or ladder probes in flight per request (1 = sequential; raise against high-latency upstreams)")
		maxSessions  = flag.Int("max-sessions", 0, "max in-flight sessions across all namespaces before requests are shed with 429 (0 = unlimited; a batch of N counts N)")
		clientBudget = flag.Int64("client-budget", 0, "upstream queries each client (X-Client-ID header) may cost per budget window (0 = unmetered)")
		budgetWindow = flag.Duration("client-budget-window", time.Minute, "length of the per-client budget window")
		acquireOn    = flag.Bool("acquire", false, "proactively acquire knowledge for hot query windows from idle capacity (background, always yields to user traffic)")
		acquireWt    = flag.Int("acquire-weight", 1, "admission weight one background acquisition holds (only with -acquire)")
		acquireIvl   = flag.Duration("acquire-interval", time.Second, "how often the background acquirer looks for idle capacity (only with -acquire)")
		acquireIdle  = flag.Duration("acquire-idle", 0, "user-traffic quiet period before acquisition may start (0 = 2x -acquire-interval)")
		sentinelIvl  = flag.Duration("sentinel-interval", 0, "period of the per-namespace sentinel drift check: a tiny fixed probe set whose changed answers bump the knowledge epoch (0 = off)")
		probeRetries = flag.Int("probe-retries", 0, "extra attempts per remote probe before it fails (0 = default 2, negative = none)")
		maxBody      = flag.Int64("max-body-bytes", 1<<20, "request body size limit in bytes")
		streamWrite  = flag.Duration("stream-write-timeout", 30*time.Second, "per-event write deadline on /v1/upstreams/{ns}/rerank/stream (stalled readers are disconnected)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	)
	flag.Parse()

	if len(upstreams) == 0 && *name == "" {
		fmt.Fprintln(os.Stderr, "rerankd: need at least one -upstream URL or a -dataset name")
		os.Exit(2)
	}
	hint := *sizeHint
	if hint == 0 {
		hint = *n
	}
	srv := service.NewFederatedServer(service.Options{
		Core: core.Options{
			N:                 hint,
			ProbeCacheSize:    *cache,
			SearchParallelism: *width,
		},
		MaxSessions:        *maxSessions,
		MaxBodyBytes:       *maxBody,
		ClientBudget:       *clientBudget,
		ClientBudgetWindow: *budgetWindow,
		StreamWriteTimeout: *streamWrite,
		Acquire: service.AcquireOptions{
			Enabled: *acquireOn,
			Weight:  *acquireWt,
			Config:  acquire.Config{Interval: *acquireIvl, IdleAfter: *acquireIdle},
		},
		SentinelInterval: *sentinelIvl,
		ProbeRetries:     *probeRetries,
	})
	for _, cfg := range upstreams {
		cfg.N = hint
		info, err := srv.RegisterUpstream(cfg)
		if err != nil {
			log.Fatalf("rerankd: %v", err)
		}
		role := ""
		if info.Default {
			role = ", default"
		}
		log.Printf("rerankd: upstream %s = %s (k=%d, %d attributes%s)",
			cfg.Name, cfg.URL, info.Schema.K, len(info.Schema.Attrs), role)
	}
	if *name != "" {
		var ds *dataset.Dataset
		switch *name {
		case "dot":
			ds = dataset.DOT(*seed, *n)
		case "bluenile":
			ds = dataset.BlueNile(*seed, *n)
		case "yahooautos":
			ds = dataset.YahooAutos(*seed, *n)
		default:
			fmt.Fprintf(os.Stderr, "rerankd: unknown dataset %q\n", *name)
			os.Exit(2)
		}
		db := ds.DB()
		// The dataset namespace carries the dataset's name unless it is the
		// only upstream, in which case it is the default namespace.
		nsName := service.DefaultUpstream
		if len(upstreams) > 0 {
			nsName = strings.ToLower(ds.Name)
		}
		if _, err := srv.RegisterUpstreamDB(service.UpstreamConfig{Name: nsName, N: *n}, db); err != nil {
			log.Fatalf("rerankd: %v", err)
		}
		log.Printf("rerankd: in-process %s as namespace %q (n=%d, k=%d)", ds.Name, nsName, *n, db.K())
	}
	log.Printf("rerankd: search parallelism %d (speculative probe width per request)", *width)
	if *maxSessions > 0 {
		log.Printf("rerankd: admission bound %d in-flight sessions", *maxSessions)
	}
	if *clientBudget > 0 {
		log.Printf("rerankd: per-client budget %d upstream queries / %s", *clientBudget, *budgetWindow)
	}
	if *acquireOn {
		log.Printf("rerankd: background acquisition on (interval %s, weight %d)", *acquireIvl, *acquireWt)
	}
	if *sentinelIvl > 0 {
		log.Printf("rerankd: sentinel drift detection on (interval %s)", *sentinelIvl)
	}
	if *dataDir != "" {
		if err := srv.OpenDataDir(*dataDir, service.PersistConfig{
			CheckpointInterval: *ckptInterval,
			Logf:               func(format string, args ...any) { log.Printf("rerankd: "+format, args...) },
		}); err != nil {
			log.Fatalf("rerankd: %v", err)
		}
		st := srv.Stats()
		replayed := 0
		for _, us := range st.Upstreams {
			replayed += us.PersistReplayedDeltas
		}
		if replayed > 0 {
			us := st.Upstreams[st.DefaultUpstream]
			log.Printf("rerankd: warm start from data dir %s (%d committed deltas replayed; default namespace: %d history tuples, %d cached probe answers, %d MD dense regions; checkpoint interval %s)",
				*dataDir, replayed, us.HistoryTuples, us.ProbeCacheEntries, us.MDDenseRegions, *ckptInterval)
		} else {
			log.Printf("rerankd: data dir %s opened cold (checkpoint interval %s)", *dataDir, *ckptInterval)
		}
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slowloris protection: a client gets 5s to finish its headers
		// and idle keep-alive connections are reaped. WriteTimeout stays
		// 0 because stream responses legitimately run as long
		// as the search does; per-request work is bounded by admission
		// control instead.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       1 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful drain: on SIGTERM/SIGINT stop admitting (healthz goes 503 so
	// load balancers deregister), let in-flight requests finish, then take
	// the final checkpoint so the restart is warm.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() {
		log.Printf("rerankd: listening on %s", *addr)
		serveErr <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		// Bind failure or another fatal serve error before any signal.
		log.Fatalf("rerankd: serve: %v", err)
	case s := <-sig:
		log.Printf("rerankd: %s received, draining (timeout %s)", s, *drainTimeout)
	}
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("rerankd: drain incomplete: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("rerankd: serve: %v", err)
	}
	if *dataDir != "" {
		// Final checkpoint: commit everything learned since the last
		// background checkpoint, then close every namespace's store.
		if err := srv.ClosePersistence(); err != nil {
			log.Printf("rerankd: final checkpoint: %v", err)
		} else {
			log.Printf("rerankd: data dir %s finalized", *dataDir)
		}
	}
	var single, batch, stream int64
	for _, us := range srv.Stats().Upstreams {
		single, batch, stream = single+us.Requests, batch+us.BatchRequests, stream+us.StreamRequests
	}
	log.Printf("rerankd: drained %d single / %d batch / %d stream requests served; bye", single, batch, stream)
}
