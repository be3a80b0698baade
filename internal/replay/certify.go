package replay

import (
	"atropos/internal/anomaly"
	"atropos/internal/cluster"
	"atropos/internal/store"
)

// This file turns a directed run's observations into the execution's
// Adya-style dependency graph and checks it against the static claim. The
// dynamic edge definitions mirror the detector's exactly, with the model's
// symbolic relations replaced by the run's realized ones:
//
//	wr(x → y, f): y read field f of a record x wrote, and x's batch was in
//	              y's local view (realized vis);
//	ww(x → y, f): both wrote field f of one record and x's batch merged
//	              first (realized ord of the commit timestamps);
//	rw(x → y, f): x read field f of a record y wrote, and y's batch was
//	              NOT in x's view (realized ¬vis) — the anti-dependency.
//
// Only cross-instance edges are derived; the static cycle shape needs
// nothing else. A witness reproduces when both of its model edges manifest
// with the exact per-field kinds the model claimed; a run exhibits a
// violation when some dependency cycle enters one instance at one command
// and leaves at a different one — the same shape the detector's query
// asserts.

// cmdRef names a static command of one instance.
type cmdRef struct {
	Inst, Cmd int
}

// edgeKey is one dynamic dependency edge, per field.
type edgeKey struct {
	From, To cmdRef
	Kind     anomaly.EdgeKind
	Field    string
}

// slotKey addresses one field of one record.
type slotKey struct {
	table string
	key   store.Key
	field string
}

type writeRec struct {
	ref cmdRef
	ts  int64
}

// deriveEdges computes the run's cross-instance dependency edges.
func deriveEdges(obs []cluster.DirectedObs) map[edgeKey]bool {
	writes := map[slotKey][]writeRec{}
	for _, o := range obs {
		for _, w := range o.Writes {
			s := slotKey{w.Table, w.Key, w.Field}
			writes[s] = append(writes[s], writeRec{cmdRef{o.Inst, o.Cmd}, o.TS})
		}
	}
	edges := map[edgeKey]bool{}
	for s, ws := range writes {
		for _, a := range ws {
			for _, b := range ws {
				if a.ref.Inst != b.ref.Inst && a.ts < b.ts {
					edges[edgeKey{a.ref, b.ref, anomaly.EdgeWW, s.field}] = true
				}
			}
		}
	}
	for _, o := range obs {
		me := cmdRef{o.Inst, o.Cmd}
		inView := map[cmdRef]bool{}
		for _, b := range o.View {
			if b.Inst != o.Inst {
				inView[cmdRef{b.Inst, b.Cmd}] = true
			}
		}
		seen := map[slotKey]bool{}
		for _, r := range o.Reads {
			s := slotKey{r.Table, r.Key, r.Field}
			if seen[s] {
				continue
			}
			seen[s] = true
			for _, w := range writes[s] {
				if w.ref.Inst == o.Inst {
					continue
				}
				if inView[w.ref] {
					edges[edgeKey{w.ref, me, anomaly.EdgeWR, s.field}] = true
				} else {
					edges[edgeKey{me, w.ref, anomaly.EdgeRW, s.field}] = true
				}
			}
		}
	}
	return edges
}

// edgeManifests reports whether one model edge appears in the run with
// every per-field kind the detector's model asserted.
func edgeManifests(sched *anomaly.Schedule, e anomaly.SchedEdge, edges map[edgeKey]bool) bool {
	if len(e.Fields) == 0 {
		return false
	}
	fi, fc := sched.ItemAt(e.From)
	ti, tc := sched.ItemAt(e.To)
	for _, f := range e.Fields {
		if !edges[edgeKey{cmdRef{fi, fc}, cmdRef{ti, tc}, f.Kind, f.Field}] {
			return false
		}
	}
	return true
}

// hasPairCycle reports whether the edges contain a cycle that enters
// instance A at one of the pair's two commands and leaves at the other (in
// either orientation) — the pair's defining anomaly shape.
func hasPairCycle(edges map[edgeKey]bool, i1, i2 int) bool {
	out := map[int]bool{}
	in := map[int]bool{}
	for e := range edges {
		if e.From.Inst == 0 {
			out[e.From.Cmd] = true
		}
		if e.To.Inst == 0 {
			in[e.To.Cmd] = true
		}
	}
	return (out[i1] && in[i2]) || (out[i2] && in[i1])
}

// runEdges executes one directed configuration over a seeded base and
// derives its dependency edges.
func runEdges(plan *cluster.DirectedPlan, base *cluster.MatStore, cfg cluster.DirectedConfig) (map[edgeKey]bool, *cluster.DirectedResult, error) {
	res, err := plan.Run(base, cfg)
	if err != nil {
		return nil, nil, err
	}
	return deriveEdges(res.Obs), res, nil
}

// runViolates executes one directed configuration and reports whether its
// dependency graph contains the anomaly cycle shape (Violations).
func runViolates(plan *cluster.DirectedPlan, base *cluster.MatStore, cfg cluster.DirectedConfig) (bool, error) {
	res, err := plan.Run(base, cfg)
	return err == nil && len(Violations(res.Obs)) > 0, err
}
