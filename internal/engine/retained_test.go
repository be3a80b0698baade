package engine_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"atropos/internal/ast"
	"atropos/internal/corpus"
	"atropos/internal/engine"
	"atropos/internal/progen"
	"atropos/internal/service"
)

// liveHeap is the heap in use after two collections.
func liveHeap() int {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int(m.HeapAlloc)
}

// server is an in-process atroposd over eng.
type server struct {
	t   *testing.T
	eng *engine.Engine
	ts  *httptest.Server
}

func newServer(t *testing.T) *server {
	eng := engine.New(engine.Config{Workers: 1})
	ts := httptest.NewServer(service.New(eng))
	t.Cleanup(ts.Close)
	return &server{t, eng, ts}
}

// send posts req to path and requires a 200 and every cache's charged
// bytes within its share after it.
func (s *server) send(path string, req service.ProgramRequest) {
	s.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := s.ts.Client().Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		s.t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		s.t.Fatalf("%s: status %d, %v: %s", path, resp.StatusCode, err, b)
	}
	if st := s.eng.Stats(); st.ProgramBytes > engine.ProgramShare || st.AnswerBytes > engine.AnswerShare || st.SessionBytes > engine.SessionShare {
		s.t.Fatalf("%s: program, answer, session bytes %d, %d, %d past the shares %d, %d, %d",
			path, st.ProgramBytes, st.AnswerBytes, st.SessionBytes,
			engine.ProgramShare, engine.AnswerShare, engine.SessionShare)
	}
}

// streamSlack is what the live heap may hold past the budget: the parser's
// memo, which holds no source here (the engine parses through
// sema.LoadNew), bounded on its own at 4 MiB of declaration keys and
// holding about 5 bytes of nodes per key byte (it shares them with the
// program memo while both hold a program), the source text the names in a
// session's stored pairs point into once no memo holds the program (about
// 0.6 KB per generated program) and the test's own state. A run that stops
// once every share is passed grows the heap by 64 MiB for 63 MiB charged.
const streamSlack = 32 << 20

// TestRetainedBytesStreaming: one client streams distinct generated
// programs through /v1/analyze, /v1/repair and /v1/certify until each of
// the three caches has been past its share: the program and answer memos
// evict, and the client's one session grows past the session share and is
// dropped at checkin. After every request each cache's charged bytes are
// within its share, and the live heap stays within the budget plus
// streamSlack.
func TestRetainedBytesStreaming(t *testing.T) {
	start := time.Now()
	s := newServer(t)
	base := liveHeap()
	checkHeap := func(seed int64) {
		t.Helper()
		if live := liveHeap() - base; live > engine.RetainedBytes+streamSlack {
			t.Fatalf("after seed %d: live heap grew %d MiB, past the %d MiB budget + %d MiB",
				seed, live>>20, engine.RetainedBytes>>20, streamSlack>>20)
		}
	}
	const maxSeeds = 20000
	for seed := int64(1); ; seed++ {
		src := ast.Format(progen.Program(seed))
		// The client's three sessions, one per model, grow on every
		// program; answers are stored until the answer memo has evicted,
		// a repair under each model on every program (a reply is a few KB).
		for _, model := range []string{"EC", "CC", "RR"} {
			s.send("/v1/analyze", service.ProgramRequest{Source: src, Model: model, Client: "streamer"})
			if s.eng.Stats().AnswerEvictions == 0 {
				s.send("/v1/repair", service.ProgramRequest{Source: src, Model: model, Client: "streamer"})
			}
		}
		if s.eng.Stats().AnswerEvictions == 0 && seed%2 == 0 {
			s.send("/v1/certify", service.ProgramRequest{Source: src})
		}
		if seed%2000 == 0 {
			checkHeap(seed)
		}
		st := s.eng.Stats()
		if st.ProgramMisses > int64(st.CachedPrograms) && st.AnswerEvictions > 0 && st.SessionEvictions > 0 {
			checkHeap(seed)
			t.Logf("%d programs in %v: %d programs held, %d answers and %d sessions evicted; stats %+v",
				seed, time.Since(start), st.CachedPrograms, st.AnswerEvictions, st.SessionEvictions, st)
			return
		}
		if seed == maxSeeds {
			t.Fatalf("%d programs did not pass every share: %+v", seed, st)
		}
	}
}

// TestChargeAccuracy: each kind of entry is charged within 2× of the live
// heap it pins. Answers (repair, certifying and not, and certify, with
// their replies, on generated programs and the nine benchmarks) and a
// client's session are measured as the live heap their removal frees. A
// program's nodes are shared with the parser's declaration memo while it
// has room, so a program entry is measured as the live heap's growth while
// novel sources are checked: what it alone pins once that memo is full.
func TestChargeAccuracy(t *testing.T) {
	s := newServer(t)
	var srcs []string
	for seed := int64(1_000_001); seed <= 1_000_300; seed++ {
		srcs = append(srcs, ast.Format(progen.Program(seed)))
	}
	within := func(kind string, charged, pinned int) {
		t.Helper()
		t.Logf("%s: charged %d bytes, pinning %d", kind, charged, pinned)
		if charged > 2*pinned || pinned > 2*charged {
			t.Errorf("%s: charged %d bytes for %d of live heap, not within 2x", kind, charged, pinned)
		}
	}
	before := liveHeap()
	for _, src := range srcs {
		s.send("/v1/parse", service.ProgramRequest{Source: src})
	}
	within("programs", s.eng.Stats().ProgramBytes, liveHeap()-before)

	var reqs []service.ProgramRequest
	for _, src := range srcs[:100] {
		reqs = append(reqs, service.ProgramRequest{Source: src})
	}
	for _, b := range corpus.Benchmarks() {
		reqs = append(reqs, service.ProgramRequest{Benchmark: b.Name})
	}
	for _, req := range reqs {
		// The first send of each is a miss, which stores the reply; the
		// second is a hit, answered from it.
		for range 2 {
			s.send("/v1/certify", req)
			s.send("/v1/repair", req)
			req.Certify = true
			s.send("/v1/repair", req)
			req.Certify = false
		}
	}
	st := s.eng.Stats()
	if st.AnswerReplyBytes == 0 {
		t.Fatal("no reply stored")
	}
	held := liveHeap()
	s.eng.DropAnswers()
	within("answers", st.AnswerBytes, held-liveHeap())

	for _, src := range srcs {
		s.send("/v1/analyze", service.ProgramRequest{Source: src, Client: "c"})
	}
	charged := s.eng.Stats().SessionBytes
	held = liveHeap()
	s.eng.DropSessions()
	within("sessions", charged, held-liveHeap())
}
