// Command atroposd serves the Atropos repair pipeline over HTTP: one
// long-lived engine (bounded worker pool, per-client detection-session
// cache, a memo of complete repair and certify answers) behind five JSON
// endpoints.
//
//	POST /v1/parse     {"source": ...}                     → formatted program
//	POST /v1/analyze   {"source"|"benchmark", "model"}     → anomalous pairs
//	POST /v1/repair    {"source"|"benchmark", "model"}     → repaired program
//	POST /v1/certify   {"source"|"benchmark", "model"}     → witness replays
//	POST /v1/simulate  {"benchmark", "topology", "mode"}   → cluster metrics
//	GET  /v1/stats                                          → engine counters
//	GET  /healthz                                           → liveness probe
//	GET  /readyz                                            → readiness probe
//
// Requests carrying a "client" id reuse that client's cached detection
// session across calls (incremental re-analysis). A repair or certify of a
// program already answered in full, for any client, is answered again from
// the engine's 256-answer memo (/v1/stats reports answer_hits and
// answer_misses). /v1/parse and /v1/certify answer 400 for a knob they do
// not read, and every endpoint for a field it does not know (the retired
// budget_* and parallelism fields among them).
// "timeout_ms" bounds one request, and closing the connection aborts its
// detection mid-flight. When all
// workers are busy and the queue is full the daemon answers 429 with a
// Retry-After hint instead of queueing unboundedly. On SIGINT/SIGTERM the
// daemon flips /readyz to 503 (so load balancers stop routing to it),
// finishes in-flight requests, and exits. -pprof ADDR serves net/http/pprof
// on a second, admin-only listener (go tool pprof http://ADDR/debug/pprof/profile).
// See DESIGN.md §12.
//
// Usage:
//
//	atroposd [-addr :8372] [-workers N] [-queue N] [-sessions N] [-pprof ADDR]
//	atroposd -loadtest [-clients 64] [-requests 4]   # in-process load test
//	atroposd -servicechaos                           # scripted fault harness + gate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"atropos/internal/engine"
	"atropos/internal/exp"
	"atropos/internal/service"
)

var (
	addr     = flag.String("addr", ":8372", "listen address")
	workers  = flag.Int("workers", 0, "concurrent solve workers (0 = GOMAXPROCS)")
	queue    = flag.Int("queue", 0, "admission queue depth before 429 (0 = 4x workers)")
	sessions = flag.Int("sessions", 0, "cached client detection sessions before LRU eviction (0 = 64)")
	loadtest = flag.Bool("loadtest", false, "run the in-process load test instead of serving")
	clients  = flag.Int("clients", 0, "loadtest: concurrent clients (0 = 64)")
	requests = flag.Int("requests", 0, "loadtest: requests per client (0 = 4)")
	svcChaos = flag.Bool("servicechaos", false, "run the scripted service-fault harness and its gate instead of serving")
	pprofAt  = flag.String("pprof", "", "admin listen address serving net/http/pprof under /debug/pprof/ (empty = off)")
)

func main() {
	flag.Parse()
	cfg := engine.Config{Workers: *workers, QueueDepth: *queue, Sessions: *sessions}
	if *loadtest {
		runLoadtest()
		return
	}
	if *svcChaos {
		runServiceChaos()
		return
	}
	if *pprofAt != "" {
		ln, err := net.Listen("tcp", *pprofAt)
		if err != nil {
			fatal(err)
		}
		admin := &http.Server{Handler: service.AdminHandler(), ReadHeaderTimeout: 10 * time.Second}
		go admin.Serve(ln) //nolint:errcheck // lives as long as the process
		fmt.Fprintf(os.Stderr, "atroposd: pprof on %s\n", ln.Addr())
	}
	eng := engine.New(cfg)
	svc := service.New(eng)
	srv := &http.Server{
		Addr:    *addr,
		Handler: svc,
		// Slow-client bounds; solve time itself is bounded per request via
		// timeout_ms, not here.
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
		// Go dark on /readyz first so balancers drain us, then finish the
		// in-flight requests.
		svc.SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort drain, then exit
	}()
	fmt.Fprintf(os.Stderr, "atroposd: listening on %s (workers=%d queue=%d sessions=%d)\n",
		*addr, eng.Stats().Workers, eng.Stats().QueueDepth, *sessions)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

// runLoadtest drives the exp harness: an in-process daemon under N
// concurrent clients, printing the measurement (exp.LoadResult) as JSON.
func runLoadtest() {
	res, err := exp.RunLoad(exp.LoadConfig{
		Clients:           *clients,
		RequestsPerClient: *requests,
		Workers:           *workers,
		QueueDepth:        *queue,
		Sessions:          *sessions,
	})
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(buf, '\n'))
	if res.Completed != res.Requests || res.Errors != 0 {
		fatal(fmt.Errorf("dropped requests: %d/%d completed, %d errors",
			res.Completed, res.Requests, res.Errors))
	}
}

// runServiceChaos drives the scripted service-fault harness against a fresh
// engine and holds the result to its gate: stalled slots drain, overload
// sheds, the breaker trips, the injected panic is contained, and the engine
// recovers to steady state. Exit status 1 on any gate failure.
func runServiceChaos() {
	res, err := exp.RunServiceChaos(exp.ServiceChaosConfig{Workers: *workers, QueueDepth: *queue})
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Format())
	if fails := exp.ServiceChaosGate(res); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "atroposd: service-chaos gate:", f)
		}
		os.Exit(1)
	}
	fmt.Println("service-chaos gate: PASS")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atroposd:", err)
	os.Exit(1)
}
