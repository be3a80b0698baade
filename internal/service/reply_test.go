package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/corpus"
	"atropos/internal/engine"
	"atropos/internal/repair"
)

// splitElapsed cuts a repair or certify body at its elapsed_ms value and
// checks that the value is a JSON number and the object's last field.
func splitElapsed(t *testing.T, name string, body []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(body, elapsedField)
	if i < 0 {
		t.Fatalf("%s: no elapsed_ms in %s", name, body)
	}
	i += len(elapsedField)
	rest, ok := bytes.CutSuffix(body[i:], []byte("}\n"))
	if _, err := strconv.ParseFloat(string(rest), 64); !ok || err != nil {
		t.Fatalf("%s: body does not end in an elapsed_ms number: %q", name, body[i:])
	}
	return body[:i]
}

// TestStoredReplyIdentity: every hit, the first included, is sent from the
// reply its miss stored, and is, up to elapsed_ms, the bytes writeJSON
// makes of the hit-form response to a fresh computation (no detection work
// of its own: Stats keep only Queries) — for repair (certifying and not)
// and certify on the nine benchmarks under EC, CC and RR and on progen 1–8.
// The stored reply is exactly those bytes.
func TestStoredReplyIdentity(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	ctx := context.Background()
	type cell struct {
		c     corpus.Program
		model anomaly.Model
		req   ProgramRequest
	}
	var cells []cell
	for _, c := range corpus.Benchmarks() {
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			cells = append(cells, cell{c, m, ProgramRequest{Benchmark: c.Name, Model: m.String()}})
		}
	}
	for _, c := range corpus.Progen(1, 9) {
		cells = append(cells, cell{c, anomaly.EC, ProgramRequest{Source: ast.Format(c.Prog)}})
	}
	for _, cl := range cells {
		for _, verb := range []string{"repair", "repair+certify", "certify"} {
			name := fmt.Sprintf("%s/%s/%s", cl.c.Name, cl.model, verb)
			req := cl.req
			req.Certify = verb == "repair+certify"
			path := "/v1/repair"
			var (
				want   any
				stored func() (*engine.Reply, error)
			)
			if verb == "certify" {
				path = "/v1/certify"
				cert, rep, _, err := eng.Certify(ctx, cl.c.Prog, cl.model)
				if err != nil {
					t.Fatal(err)
				}
				want = certifyResponse(cl.model, cert, rep, 0)
				stored = func() (*engine.Reply, error) {
					_, _, r, err := eng.Certify(ctx, cl.c.Prog, cl.model)
					return r, err
				}
			} else {
				res, err := eng.Repair(ctx, cl.c.Prog, cl.model, repair.Certify(req.Certify))
				if err != nil {
					t.Fatal(err)
				}
				res.Stats = anomaly.SessionStats{Queries: res.Stats.Queries}
				want = repairResponse(cl.model, res)
				stored = func() (*engine.Reply, error) {
					_, r, err := eng.RepairReply(ctx, cl.c.Prog, cl.model, repair.Certify(req.Certify))
					return r, err
				}
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, 200, want)
			built := splitElapsed(t, name, rec.Body.Bytes())
			for i := 0; i < 3; i++ { // computed, then hits 1 and 2
				hits := eng.Stats().AnswerHits
				resp, body := post(t, ts, path, req)
				if resp.StatusCode != 200 {
					t.Fatalf("%s: request %d: status %d: %s", name, i, resp.StatusCode, body)
				}
				if got := eng.Stats().AnswerHits - hits; got != min(int64(i), 1) {
					t.Fatalf("%s: request %d: %d answer hits, want %d", name, i, got, min(i, 1))
				}
				if got := splitElapsed(t, name, body); i > 0 && !bytes.Equal(got, built) {
					t.Fatalf("%s: hit %d differs from the built response\nsent:  %s\nbuilt: %s", name, i, got, built)
				}
			}
			reply, err := stored()
			if err != nil {
				t.Fatal(err)
			}
			if reply == nil || !bytes.Equal(reply.Bytes, built) {
				t.Fatalf("%s: the stored reply is not the built response", name)
			}
		}
	}
}

// TestAppendJSONFloat: the elapsed_ms appender writes what encoding/json
// writes for a float64.
func TestAppendJSONFloat(t *testing.T) {
	for _, f := range []float64{0, 5e-324, 1e-7, 1e-6, 0.25, 123.456, 1e20, 1e21, math.MaxFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%g: appended %s, encoding/json %s", f, got, want)
		}
	}
}
