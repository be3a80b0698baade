package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"atropos/internal/ast"
	"atropos/internal/engine"
	"atropos/internal/progen"
	"atropos/internal/service"
)

// LoadConfig sizes one service load-test run: N concurrent progen clients
// driving an in-process atroposd (engine + HTTP stack over a loopback
// listener — real sockets, real JSON, real backpressure).
type LoadConfig struct {
	// Clients is the number of concurrent clients (default 64).
	Clients int
	// RequestsPerClient is how many requests each client issues, strictly
	// alternating analyze and repair over its own progen program
	// (default 4).
	RequestsPerClient int
	// Workers / QueueDepth / Sessions size the engine (engine.Config
	// semantics). The defaults keep the queue deliberately smaller than
	// the client count so backpressure (429 + retry) is exercised.
	Workers    int
	QueueDepth int
	Sessions   int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 4
	}
	if c.QueueDepth <= 0 {
		// Undersized on purpose: with the queue below the client count,
		// admission rejections (429) are part of the measured behavior.
		c.QueueDepth = max(1, c.Clients/8)
	}
	if c.Sessions <= 0 {
		c.Sessions = c.Clients
	}
	return c
}

// LoadResult is one load-test measurement. The request/anomaly counts are
// deterministic functions of the configuration — every client retries 429s
// until served, and its program is progen.Program(client index) — so
// TestRunLoadFullScaleGolden pins them; the latency, throughput, retry, and
// hit-rate numbers are machine- and scheduling-dependent (informational).
type LoadResult struct {
	Clients           int `json:"clients"`
	RequestsPerClient int `json:"requests_per_client"`
	// Requests = Clients × RequestsPerClient; Completed counts requests
	// that returned 200. Zero dropped means Completed == Requests.
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	// Errors counts non-200, non-429 responses (always 0 on a healthy run).
	Errors int `json:"errors"`
	// Retried429 counts admission rejections absorbed by client retry —
	// backpressure observed, no request dropped.
	Retried429 int `json:"retried_429"`
	// TotalInitial sums the anomaly counts every response reported
	// (analyze count + repair initial); TotalRemaining sums repair
	// leftovers. Both are scheduling-independent.
	TotalInitial   int `json:"total_initial"`
	TotalRemaining int `json:"total_remaining"`
	// Wall-clock measurements (informational).
	WallMs        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	// SessionHitRate is the engine's LRU hit fraction over the run.
	SessionHitRate float64      `json:"session_hit_rate"`
	Stats          engine.Stats `json:"stats"`
}

// RunLoad starts an in-process atroposd on a loopback socket, drives it
// with cfg.Clients concurrent clients, and aggregates the result. Every
// client issues all its requests to completion (429s are retried after the
// server's Retry-After hint, scaled down for test speed), so a healthy run
// completes exactly Clients×RequestsPerClient requests.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	eng := engine.New(engine.Config{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Sessions:   cfg.Sessions,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: service.New(eng)}
	go srv.Serve(ln) //nolint:errcheck // closed via srv.Close below
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Clients,
		MaxIdleConnsPerHost: cfg.Clients,
	}}
	defer client.CloseIdleConnections()

	var (
		mu        sync.Mutex
		latencies []time.Duration
		res       = LoadResult{
			Clients:           cfg.Clients,
			RequestsPerClient: cfg.RequestsPerClient,
			Requests:          cfg.Clients * cfg.RequestsPerClient,
		}
		firstErr error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := ast.Format(progen.Program(int64(c + 1)))
			id := "load-" + strconv.Itoa(c)
			// Per-client seeded RNG: the retry jitter below is reproducible
			// for a given configuration, like every count
			// TestRunLoadFullScaleGolden pins.
			rng := rand.New(rand.NewSource(int64(c + 1)))
			for i := 0; i < cfg.RequestsPerClient; i++ {
				endpoint := "/v1/analyze"
				if i%2 == 1 {
					endpoint = "/v1/repair"
				}
				body, _ := json.Marshal(service.ProgramRequest{Source: src, Model: "EC", Client: id})
				initial, remaining, retries, lat, err := postUntilServed(client, base+endpoint, body, rng)
				mu.Lock()
				res.Retried429 += retries
				if err != nil {
					res.Errors++
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d %s: %w", c, endpoint, err)
					}
				} else {
					res.Completed++
					res.TotalInitial += initial
					res.TotalRemaining += remaining
					latencies = append(latencies, lat)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	res.WallMs = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		res.ThroughputRPS = float64(res.Completed) / wall.Seconds()
	}
	res.P50Ms = percentileMs(latencies, 0.50)
	res.P99Ms = percentileMs(latencies, 0.99)
	res.Stats = eng.Stats()
	res.SessionHitRate = res.Stats.SessionHitRate()
	return &res, nil
}

// Retry backoff bounds: the first 429 waits ~1ms, each further rejection
// doubles the step up to the cap. Sleeping a flat interval would march all
// rejected clients back in lockstep and re-collide them at the admission
// queue; exponential growth with jitter spreads the retry wave out.
const (
	retryBase = time.Millisecond
	retryCap  = 16 * time.Millisecond
)

// backoff is the sleep before retry number n (1-based): the capped
// exponential step, jittered uniformly over its upper half so concurrent
// clients desynchronize but never return faster than half the step.
func backoff(n int, rng *rand.Rand) time.Duration {
	d := retryBase << min(n-1, 10)
	if d > retryCap {
		d = retryCap
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// postUntilServed POSTs body to url, absorbing 429 backpressure with
// capped jittered exponential retries, and extracts the response's anomaly
// counts. The reported latency is the served attempt's round trip; queue
// time spent inside the server is included, client-side retry backoff is
// not. (The server's Retry-After hint says seconds; a progen request takes
// milliseconds, so the client honors its spirit at test timescales.)
func postUntilServed(client *http.Client, url string, body []byte, rng *rand.Rand) (initial, remaining, retries int, lat time.Duration, err error) {
	for {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, 0, retries, 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, retries, 0, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			initial, remaining, err = extractCounts(data)
			return initial, remaining, retries, time.Since(t0), err
		case http.StatusTooManyRequests:
			retries++
			time.Sleep(backoff(retries, rng))
		default:
			return 0, 0, retries, 0, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, data)
		}
	}
}

// extractCounts pulls the anomaly totals out of either response shape:
// analyze carries count, repair carries initial/remaining pair lists.
func extractCounts(data []byte) (initial, remaining int, err error) {
	var probe struct {
		Count     *int              `json:"count"`
		Initial   []json.RawMessage `json:"initial"`
		Remaining []json.RawMessage `json:"remaining"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return 0, 0, err
	}
	if probe.Count != nil {
		return *probe.Count, 0, nil
	}
	return len(probe.Initial), len(probe.Remaining), nil
}

func percentileMs(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
