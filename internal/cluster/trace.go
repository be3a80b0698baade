package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Trace records a run's execution history — every applied write batch with
// its merge timestamp and replica, every commit with its virtual time and
// client, every SC abort — as one canonical string per event. The
// differential tests assert that the executor and their AST reference
// produce byte-identical traces for a fixed seed (DESIGN.md §9). Writes
// within a batch are sorted by table/key/field name before rendering: the
// two emit batch members in different (state-equivalent) orders, and the
// canonical form erases exactly that difference and nothing else.
type Trace struct {
	Events []string
}

func (tr *Trace) add(s string) { tr.Events = append(tr.Events, s) }

// applyC records a compiled write batch applied at the replica whose store is
// ms: the writes name their records by slot, the directory has the keys.
func (tr *Trace) applyC(now int64, rep int, ts int64, ms *MatStore, ws []cwrite) {
	tr.applyOps(now, rep, ts, ms.namedWrites(nil, ws))
}

// applyOps records a write batch in name-based form (a directed run's, from
// its observation records, arrives so).
func (tr *Trace) applyOps(now int64, rep int, ts int64, ws []WriteOp) {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = fmt.Sprintf("%s/%q.%s=%s", w.Table, string(w.Key), w.Field, w.Val)
	}
	sort.Strings(parts)
	tr.add(fmt.Sprintf("%d r%d ts%d %s", now, rep, ts, strings.Join(parts, " ")))
}

func (tr *Trace) commit(now int64, client int, txn string, measured bool) {
	tag := "commit"
	if !measured {
		tag = "commit-unmeasured"
	}
	tr.add(fmt.Sprintf("%d c%d %s %s", now, client, tag, txn))
}

func (tr *Trace) abort(now int64, client int, txn string) {
	tr.add(fmt.Sprintf("%d c%d abort %s", now, client, txn))
}

// fault records one fault window of the run's plan as a header event, so
// a trace pins the schedule it ran under alongside the history it
// produced (node kinds name one replica, link kinds the pair).
func (tr *Trace) fault(f Fault) {
	switch f.Kind {
	case FaultCrash:
		tr.add(fmt.Sprintf("fault %s r%d [%d,%d)", f.Kind, f.A, f.From, f.Until))
	case FaultSkew:
		tr.add(fmt.Sprintf("fault %s r%d %+d [%d,%d)", f.Kind, f.A, f.Amount, f.From, f.Until))
	case FaultDrop:
		tr.add(fmt.Sprintf("fault %s r%d-r%d %d%% [%d,%d)", f.Kind, f.A, f.B, f.Pct, f.From, f.Until))
	default:
		tr.add(fmt.Sprintf("fault %s r%d-r%d %d [%d,%d)", f.Kind, f.A, f.B, f.Amount, f.From, f.Until))
	}
}
