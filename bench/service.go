package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"

	"atropos/internal/ast"
	"atropos/internal/engine"
	"atropos/internal/progen"
	"atropos/internal/service"
)

const (
	// svcConns is the number of closed-loop connections, each waiting for its
	// reply before it sends again. The load generator shares the process and
	// its two cores with the daemon, whose every request fans detection out
	// to two workers; a second connection made ops_per_s and op_p90_ms spread
	// 12 % and 17 % over ten interleaved runs where one spreads 7 %.
	svcConns     = 1
	svcClients   = 96 // logical client ids, against a 64-entry session LRU
	svcRoundSize = 1000
	// svcPopulationSeed fixes which (endpoint, client) pairs make up a
	// round, so every run does the same work and only its order comes from
	// -seed. Drawing the pairs from -seed made alloc_mb_per_op and the
	// latency metrics move by more than their bounds from seed to seed.
	svcPopulationSeed = 20210620
)

// svcBenchmarks are repaired by name; the rest of the mix sends progen
// programs as source text.
var svcBenchmarks = []string{"SmallBank", "Courseware", "Twitter", "Killrchat", "FMKe"}

// serviceMixed drives an in-process atroposd (engine + HTTP over a loopback
// listener) with one closed-loop connection. A round is 1000 requests:
// /v1/parse, /v1/analyze, /v1/repair and /v1/certify on progen programs
// (100/400/300/100) and /v1/repair by benchmark name (100). Each request carries
// one of 96 logical client ids drawn Zipf(1.1), 88 of which a round uses; a
// client owns one progen program, so the 64-entry session LRU sees hits and
// evictions (a 200-request round used 49 ids and evicted nothing). Programs
// are small (1-3 ms of repair), so the per-request fixed cost (JSON, HTTP,
// admission, session checkout, parse) is a large share: engine and service
// do real work here and nowhere else. With one caller nothing can queue:
// any 429 is a failure.
type serviceMixed struct {
	seed int64
	exp  *expectations

	eng    *engine.Engine
	srv    *http.Server
	served chan struct{} // closed when the server's accept loop has returned
	client *http.Client
	base   string
	reqs   []*svcRequest // one round's requests, in population order
}

type svcRequest struct {
	cell  string
	path  string
	body  []byte
	check func(w *serviceMixed, body []byte) error
}

func (w *serviceMixed) name() string         { return "service-mixed" }
func (w *serviceMixed) probeProgram() string { return "FMKe" }

func (w *serviceMixed) setup(seed int64, exp *expectations) error {
	w.seed, w.exp = seed, exp
	w.reqs = svcPopulation()

	w.eng = engine.New(engine.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: service.New(w.eng)}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed: close() ends it
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcConns}}
	return nil
}

func (w *serviceMixed) close() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.srv.Close()
	<-w.served
	w.srv = nil
}

// svcPopulation builds one round's requests. Bodies and expectation keys
// are made once, here, so the timed loop sends bytes and compares numbers.
func svcPopulation() []*svcRequest {
	rng := rand.New(rand.NewSource(svcPopulationSeed))
	zipf := rand.NewZipf(rng, 1.1, 1, svcClients-1)
	body := func(req service.ProgramRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			panic(err) // a struct of strings always marshals
		}
		return b
	}
	srcs := make([]string, svcClients)
	progenReq := func(endpoint string, check func(key string) func(*serviceMixed, []byte) error) *svcRequest {
		c := int(zipf.Uint64())
		if srcs[c] == "" {
			srcs[c] = ast.Format(progen.Program(int64(c + 1)))
		}
		return &svcRequest{
			cell:  endpoint + "/progen",
			path:  "/v1/" + endpoint,
			body:  body(service.ProgramRequest{Source: srcs[c], Client: "c" + strconv.Itoa(c)}),
			check: check("progen/" + strconv.Itoa(c+1)),
		}
	}
	var reqs []*svcRequest
	for i := 0; i < svcRoundSize/10; i++ {
		reqs = append(reqs, progenReq("parse", checkParse))
	}
	for i := 0; i < svcRoundSize*4/10; i++ {
		reqs = append(reqs, progenReq("analyze", checkAnalyze))
	}
	for i := 0; i < svcRoundSize*3/10; i++ {
		reqs = append(reqs, progenReq("repair", checkRepair))
	}
	for i := 0; i < svcRoundSize/10; i++ {
		reqs = append(reqs, progenReq("certify", checkCertify))
	}
	for i := 0; i < svcRoundSize/10; i++ {
		name := svcBenchmarks[i%len(svcBenchmarks)]
		reqs = append(reqs, &svcRequest{
			cell:  "repair/benchmark",
			path:  "/v1/repair",
			body:  body(service.ProgramRequest{Benchmark: name, Client: "c" + strconv.FormatUint(zipf.Uint64(), 10)}),
			check: checkRepair("table1/" + name + "/EC"),
		})
	}
	return reqs
}

func (w *serviceMixed) round(r int, rc *runCtx) {
	order := roundRNG(w.seed, r).Perm(len(w.reqs))
	var wg sync.WaitGroup
	for c := 0; c < svcConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(order); i += svcConns {
				req := w.reqs[order[i]]
				rc.op(req.cell, func(op spanID) error { return w.send(rc, op, req) })
			}
		}()
	}
	wg.Wait()
}

// send is one op: one HTTP request, its reply read in full and checked.
func (w *serviceMixed) send(rc *runCtx, op spanID, req *svcRequest) error {
	s := rc.tr.start(op, spanRoundTrip)
	resp, err := w.client.Post(w.base+req.path, "application/json", bytes.NewReader(req.body))
	var reply []byte
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rc.tr.end(s)
	if err != nil {
		return err
	}
	rc.count("service.requests", 1)
	rc.count("service.resp_bytes", float64(len(reply)))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rc.count("service.status_429", 1)
	case resp.StatusCode >= 500:
		rc.count("service.status_5xx", 1)
	case resp.StatusCode >= 400:
		rc.count("service.status_4xx", 1)
	default:
		rc.count("service.status_2xx", 1)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return req.check(w, reply)
}

func checkParse(key string) func(*serviceMixed, []byte) error {
	txns, tables := key+"/txns", key+"/tables"
	return func(w *serviceMixed, reply []byte) error {
		var r service.ParseResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return err
		}
		if err := w.exp.check(txns, float64(r.Txns), false); err != nil {
			return err
		}
		return w.exp.check(tables, float64(r.Tables), false)
	}
}

func checkAnalyze(key string) func(*serviceMixed, []byte) error {
	initial := key + "/initial"
	return func(w *serviceMixed, reply []byte) error {
		var r service.AnalyzeResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return err
		}
		if r.Degraded {
			return fmt.Errorf("degraded report")
		}
		return w.exp.check(initial, float64(r.Count), false)
	}
}

func checkRepair(key string) func(*serviceMixed, []byte) error {
	initial, remaining := key+"/initial", key+"/remaining"
	return func(w *serviceMixed, reply []byte) error {
		var r service.RepairResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return err
		}
		if r.Degraded {
			return fmt.Errorf("degraded result")
		}
		if err := w.exp.check(initial, float64(len(r.Initial)), false); err != nil {
			return err
		}
		return w.exp.check(remaining, float64(len(r.Remaining)), false)
	}
}

func checkCertify(key string) func(*serviceMixed, []byte) error {
	initial, certified := key+"/initial", key+"/certified"
	return func(w *serviceMixed, reply []byte) error {
		var r service.CertifyResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return err
		}
		if err := w.exp.check(initial, float64(r.Count), false); err != nil {
			return err
		}
		return w.exp.check(certified, float64(r.Certificate.Certified), false)
	}
}

// layerStats reads the engine's own counters after the traced rounds.
func (w *serviceMixed) layerStats() map[string]float64 {
	st := w.eng.Stats()
	return map[string]float64{
		"engine.session_hit_share":    st.SessionHitRate(),
		"engine.session_evictions":    float64(st.SessionEvictions),
		"engine.completed":            float64(st.Completed),
		"engine.rejected":             float64(st.Rejected),
		"engine.shed":                 float64(st.Shed),
		"engine.degraded":             float64(st.Degraded),
		"engine.service_time_ewma_ms": st.ServiceTimeEwmaMs,
	}
}
