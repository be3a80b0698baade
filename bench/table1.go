package main

import (
	"context"
	"fmt"

	"atropos"
	"atropos/internal/ast"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

// table1Cold is the paper's Time column: source text in, repaired source
// text out, on a fresh private detection session, for the nine Table-1
// programs under EC, CC and RR. One caller; detection fans out to its
// default width. Nearly all the work is in anomaly/logic/sat; engine,
// service and cluster do none.
type table1Cold struct {
	seed  int64
	exp   *expectations
	cells []table1Cell
}

type table1Cell struct {
	name  string
	src   string
	model atropos.Model
}

func (w *table1Cold) name() string         { return "table1-cold" }
func (w *table1Cold) probeProgram() string { return "TPC-C" }
func (w *table1Cold) close()               {}

func (w *table1Cold) setup(seed int64, exp *expectations) error {
	w.seed, w.exp, w.cells = seed, exp, nil
	for _, b := range atropos.Benchmarks() {
		prog, err := b.Program()
		if err != nil {
			return err
		}
		src := atropos.Format(prog)
		for _, m := range []atropos.Model{atropos.EC, atropos.CC, atropos.RR} {
			w.cells = append(w.cells, table1Cell{name: b.Name + "/" + m.String(), src: src, model: m})
		}
	}
	return nil
}

func (w *table1Cold) round(r int, rc *runCtx) {
	for _, i := range roundRNG(w.seed, r).Perm(len(w.cells)) {
		c := &w.cells[i]
		rc.op(c.name, func(op spanID) error { return w.repair(rc, op, c, r == 0) })
	}
}

// repair is one op. The warm-up round also checks that the output text
// parses and passes sema again.
func (w *table1Cold) repair(rc *runCtx, op spanID, c *table1Cell, deep bool) error {
	prog, err := parseChecked(rc, op, c.src)
	if err != nil {
		return err
	}
	s := rc.tr.start(op, spanRepair)
	res, err := atropos.Repair(context.Background(), prog, c.model)
	rc.tr.end(s)
	if err != nil {
		return err
	}
	s = rc.tr.start(op, spanFormat)
	out := atropos.Format(res.Program)
	rc.tr.end(s)

	if res.Degraded {
		return fmt.Errorf("degraded result")
	}
	if err := w.exp.check("table1/"+c.name+"/initial", float64(len(res.Initial)), false); err != nil {
		return err
	}
	if err := w.exp.check("table1/"+c.name+"/remaining", float64(len(res.Remaining)), false); err != nil {
		return err
	}
	if deep {
		if _, err := atropos.Parse(out); err != nil {
			return fmt.Errorf("repaired program does not load: %w", err)
		}
	}
	if rc.counting() {
		countSession(rc, res.Stats)
		countRepair(rc, res)
	}
	return nil
}

// parseChecked is atropos.Parse taken apart into its two public calls, so
// the traced run can span each.
func parseChecked(rc *runCtx, op spanID, src string) (*ast.Program, error) {
	s := rc.tr.start(op, spanParse)
	prog, err := parser.Parse(src)
	rc.tr.end(s)
	if err != nil {
		rc.count("parser.errors", 1)
		return nil, err
	}
	s = rc.tr.start(op, spanCheck)
	err = sema.Check(prog)
	rc.tr.end(s)
	return prog, err
}

// countRepair adds one repair's outcome to the counted round.
func countRepair(rc *runCtx, res *atropos.RepairResult) {
	rc.count("anomaly.pairs", float64(len(res.Initial)))
	rc.count("repair.initial_pairs", float64(len(res.Initial)))
	rc.count("repair.remaining_pairs", float64(len(res.Remaining)))
	rc.count("repair.corrs", float64(len(res.Corrs)))
	rc.count("repair.serializable_txns", float64(len(res.SerializableTxns)))
	if res.Degraded {
		rc.count("repair.degraded", 1)
	}
}
