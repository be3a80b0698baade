package main

import (
	"context"
	"strings"

	"atropos"
	"atropos/internal/ast"
)

// sessionEdits is an editing loop: one detection session per program, kept
// across a sequence of small edits. Per Table-1 program (EC) a pass detects
// the original (cold), then, for each transaction in seeded order, the
// program without that transaction (a real edit: partial re-solve), the
// original again (restored: every fingerprint hits) and the original
// re-indented with tabs (a formatter run: new text, same program, every
// fingerprint hits). Two of every three edits are pure cache hits, so
// the median op is a hit step, where parse + sema + hashing dominate, and
// the 90th percentile is a re-solve. A change that speeds cold encoding by
// weakening or bypassing the session's caches wins on table1-cold and loses
// here.
type sessionEdits struct {
	seed    int64
	exp     *expectations
	benches []editBench
}

type editBench struct {
	name     string
	orig     editStep
	reflowed editStep   // the original, indented with tabs
	minus    []editStep // program without transaction i
}

type editStep struct {
	src string
	key string // expectation: anomalous pairs reported for this text
}

func (w *sessionEdits) name() string         { return "session-edits" }
func (w *sessionEdits) probeProgram() string { return "TPC-C" }
func (w *sessionEdits) close()               {}

func (w *sessionEdits) setup(seed int64, exp *expectations) error {
	w.seed, w.exp, w.benches = seed, exp, nil
	for _, b := range atropos.Benchmarks() {
		prog, err := b.Program()
		if err != nil {
			return err
		}
		src, key := atropos.Format(prog), "session/"+b.Name+"/orig"
		eb := editBench{
			name:     b.Name,
			orig:     editStep{src, key},
			reflowed: editStep{strings.ReplaceAll(src, "  ", "\t"), key},
		}
		for i, t := range prog.Txns {
			var rest []*ast.Txn
			rest = append(rest, prog.Txns[:i]...)
			rest = append(rest, prog.Txns[i+1:]...)
			eb.minus = append(eb.minus, editStep{
				atropos.Format(&ast.Program{Schemas: prog.Schemas, Txns: rest}),
				"session/" + b.Name + "/minus/" + t.Name,
			})
		}
		w.benches = append(w.benches, eb)
	}
	return nil
}

func (w *sessionEdits) round(r int, rc *runCtx) {
	rng := roundRNG(w.seed, r)
	for bi := range w.benches {
		b := &w.benches[bi]
		sess := atropos.NewDetectSession(atropos.EC)
		step := func(st *editStep) {
			rc.op(b.name, func(op spanID) error { return w.detect(rc, op, sess, st) })
		}
		step(&b.orig)
		for _, i := range rng.Perm(len(b.minus)) {
			step(&b.minus[i])
			step(&b.orig)
			step(&b.reflowed)
		}
		if rc.counting() {
			countSession(rc, sess.Stats())
		}
	}
}

// detect is one op: text in, anomaly report out, on the pass's session.
func (w *sessionEdits) detect(rc *runCtx, op spanID, sess *atropos.DetectSession, st *editStep) error {
	prog, err := parseChecked(rc, op, st.src)
	if err != nil {
		return err
	}
	s := rc.tr.start(op, spanDetect)
	rep, err := sess.DetectContext(context.Background(), prog)
	rc.tr.end(s)
	if err != nil {
		return err
	}
	rc.count("anomaly.pairs", float64(len(rep.Pairs)))
	return w.exp.check(st.key, float64(len(rep.Pairs)), false)
}
