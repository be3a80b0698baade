// Package replay turns the anomaly detector's static witnesses into
// executable certificates. Every anomalous access pair the detector reports
// is justified by a model of its cycle query — an ordering of
// the two transaction instances' commands, a visibility relation, and an
// aliasing valuation over their key terms. This package lowers that model
// into a concrete directed run of the cluster simulator (internal/cluster's
// directed scheduler mode), executes it, and checks that the claimed
// dependency cycle actually manifests in the run's observations: the
// static finding is certified by a real execution, not just a static verdict.
//
// Certification is three-sided:
//
//   - Positive: the lowered schedule, run under the witness's visibility,
//     exhibits both model edges and with them the violation cycle.
//   - SC control: the same program, arguments, and seeded rows replayed
//     serially (both orders) show no cycle — the violation is a property of
//     the weak schedule, not of the inputs.
//   - Repair control: the repaired program, run under the projection of the
//     same schedule, shows no cycle — the refactoring removed the anomaly
//     on the very execution that exhibited it.
//
// See DESIGN.md §11 for the model-extraction contract and the lowering.
package replay

import (
	"context"
	"fmt"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/cluster"
)

// PairOutcome is the certification result for one anomalous access pair.
type PairOutcome struct {
	Pair anomaly.AccessPair
	// Lowered reports whether the witness model was realizable as a
	// concrete run (see lower.go for what can prevent it).
	Lowered bool
	// Reproduced reports whether some replayed schedule exhibited a
	// dependency cycle entering the transaction at one of the pair's
	// commands and leaving at the other.
	Reproduced bool
	// Exact additionally reports that the model's own two edges manifested
	// verbatim (per-field kinds included) on the model's own schedule.
	Exact bool
	// Method names the attempt that reproduced the pair: "model" (the
	// witness's own schedule), or "split-hidden" or "split-nonrep" (the
	// canonical split interleavings, splitConfig), suffixed "@p1" or "@p2"
	// when a later defaults profile was needed.
	Method string
	// Reason explains a false Lowered or Reproduced.
	Reason string
	// Trace is the reproducing run's canonical event log.
	Trace []string
	// Runs counts the directed runs the ladder made for the pair.
	Runs int

	sched *anomaly.Schedule // the pair's witness schedule
	low   *lowered          // the reproducing attempt's lowering, else the first profile's
}

// Certificate aggregates replay outcomes over one report.
type Certificate struct {
	Model anomaly.Model
	// Total counts pairs examined; Lowered those with a realizable witness;
	// Certified those whose cycle manifested when run.
	Total     int
	Lowered   int
	Certified int
	// Runs counts the directed runs behind Outcomes.
	Runs     int
	Outcomes []PairOutcome
}

// Rate is the fraction of examined pairs whose witness replayed: the
// certificate reproduction rate.
func (c *Certificate) Rate() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Certified) / float64(c.Total)
}

// Certify replays every pair of a report against the program it was
// detected on, each from its witness schedule (anomaly.WitnessSchedules). A
// pair the program does not witness counts as not lowered.
//
// Each pair gets a ladder of at most nine replay attempts: the model's own
// schedule (which alone can set Exact), then the split interleaving at c1
// with the instances hidden from each other, then with A's tail seeing B —
// under each of three defaults profiles, so branch guards of either
// polarity can be taken. A profile that lands on an earlier one's inputs is
// skipped. The first run whose dependency graph contains a cycle through
// the pair's two commands certifies it.
func Certify(prog *ast.Program, rep *anomaly.Report) *Certificate {
	cert, _ := certifyContext(context.Background(), cluster.NewDirectedPlan(prog), rep)
	return cert
}

// certifyContext is Certify on the program's directed-run plan, with
// cooperative cancellation between pairs: when ctx expires mid-run the
// certificate built so far is returned with complete=false (its counts
// cover only the pairs processed).
func certifyContext(ctx context.Context, plan *cluster.DirectedPlan, rep *anomaly.Report) (*Certificate, bool) {
	cert := &Certificate{Model: rep.Model}
	scheds := anomaly.WitnessSchedules(plan.Program(), rep)
	for i, pair := range rep.Pairs {
		if ctx.Err() != nil {
			return cert, false
		}
		cert.Total++
		out := certifyPair(plan, pair, scheds[i])
		if out.Lowered {
			cert.Lowered++
		}
		if out.Reproduced {
			cert.Certified++
		}
		cert.Runs += out.Runs
		cert.Outcomes = append(cert.Outcomes, out)
	}
	return cert, true
}

// itemIdx finds instance 0's static command index for a command label.
func itemIdx(sched *anomaly.Schedule, label string) int {
	for _, it := range sched.Items {
		if it.Inst == 0 && it.Label == label {
			return it.Idx
		}
	}
	return -1
}

// certifyPair runs the attempt ladder for one pair on its schedule.
func certifyPair(plan *cluster.DirectedPlan, pair anomaly.AccessPair, sched *anomaly.Schedule) PairOutcome {
	out := PairOutcome{Pair: pair, sched: sched}
	if sched == nil {
		out.Reason = "pair not witnessed by the program"
		return out
	}
	i1 := itemIdx(sched, pair.C1)
	i2 := itemIdx(sched, pair.C2)
	lw, reason := newLowering(plan.Program(), sched)
	if reason != "" {
		out.Reason = reason
		return out // structural: no profile can change it
	}
	out.Lowered = true
	// tried is an earlier profile's lowering with the reason its last
	// attempt failed for.
	type tried struct {
		low    *lowered
		reason string
	}
	var failed []tried
profiles:
	for pi, prof := range profiles {
		low := lw.under(prof)
		if pi == 0 {
			out.low = low
		}
		for _, t := range failed {
			if sameInputs(t.low, low) {
				// The profile's defaults landed on nothing the model left
				// free: its runs would repeat t's, failures included.
				out.Reason = t.reason
				continue profiles
			}
		}
		type attempt struct {
			name string
			cfg  cluster.DirectedConfig
		}
		attempts := []attempt{
			{"model", low.Cfg},
			{"split-hidden", splitConfig(low, i1, false)},
			{"split-nonrep", splitConfig(low, i1, true)},
		}
		// One base serves the profile's attempts: runs only read it.
		base, err := plan.Seed(low.Rows)
		if err != nil {
			attempts = nil
			out.Reason = "run failed: " + err.Error()
		}
		for _, at := range attempts {
			out.Runs++
			edges, res, err := runEdges(plan, base, at.cfg)
			if err != nil {
				out.Reason = "run failed: " + err.Error()
				continue
			}
			if !hasPairCycle(edges, i1, i2) {
				out.Reason = "no dependency cycle through the pair"
				continue
			}
			out.Reproduced = true
			out.Exact = at.name == "model" &&
				edgeManifests(sched, sched.Edge1, edges) &&
				edgeManifests(sched, sched.Edge2, edges)
			out.Method = at.name
			if pi > 0 {
				out.Method = fmt.Sprintf("%s@p%d", at.name, pi)
			}
			out.Trace = res.Trace(at.cfg.Txns)
			out.low = low
			return out
		}
		failed = append(failed, tried{low, out.Reason})
	}
	return out
}

// CertifyModelContext detects on a private session and certifies the
// report. The context aborts the detection phase between cycle queries and
// the replay phase between pairs; a replay cut short returns the context's
// error and no certificate.
func CertifyModelContext(ctx context.Context, prog *ast.Program, model anomaly.Model) (*Certificate, *anomaly.Report, error) {
	rep, err := anomaly.NewSession(model).DetectContext(ctx, prog)
	if err != nil {
		return nil, nil, err
	}
	cert, complete := certifyContext(ctx, cluster.NewDirectedPlan(prog), rep)
	if !complete {
		return nil, nil, ctx.Err()
	}
	return cert, rep, nil
}

// RepairCertificate extends a positive certificate with the two negative
// controls: the original program under serializability, and the repaired
// program under the (projected) anomalous schedules.
type RepairCertificate struct {
	*Certificate
	// SCRuns / SCViolations: serial replays of the original program on the
	// lowered inputs (two orders per lowered pair) and how many exhibited a
	// cycle. Soundness demands zero violations.
	SCRuns       int
	SCViolations int
	// RepairedRuns / RepairedViolations: projected replays against the
	// repaired program, for pairs whose transaction and witness are fully
	// repaired. Zero violations certifies the repair on these schedules.
	RepairedRuns       int
	RepairedViolations int
	// SkippedPartial counts lowered pairs not replayed against the repaired
	// program because their transaction or witness kept a residual anomaly
	// (the repair pipeline gave up on it), so a cycle there would prove
	// nothing about the refactoring.
	SkippedPartial int
	// Errors collects run failures from the negative controls.
	Errors []string
}

// CertifyRepair certifies a pre-repair report against both the
// original and the repaired program. stillAnomalous lists transactions the
// repair left with residual pairs (repair.Result.SerializableTxns).
func CertifyRepair(orig, repaired *ast.Program, rep *anomaly.Report, stillAnomalous []string) *RepairCertificate {
	rc, _ := CertifyRepairContext(context.Background(), orig, repaired, rep, stillAnomalous)
	return rc
}

// CertifyRepairContext is CertifyRepair with cooperative cancellation: ctx
// is checked between pairs in both the positive-certificate ladder and the
// negative-control replays. When it expires mid-run the partial
// certificate built so far is returned with complete=false — its counts
// cover only the pairs processed, so callers must label the result
// degraded instead of holding it to the certification gates.
func CertifyRepairContext(ctx context.Context, orig, repaired *ast.Program, rep *anomaly.Report, stillAnomalous []string) (*RepairCertificate, bool) {
	partial := map[string]bool{}
	for _, t := range stillAnomalous {
		partial[t] = true
	}
	plan := cluster.NewDirectedPlan(orig)
	cert, complete := certifyContext(ctx, plan, rep)
	rc := &RepairCertificate{Certificate: cert}
	if !complete {
		return rc, false
	}
	var rplan *cluster.DirectedPlan
	if repaired != nil {
		rplan = cluster.NewDirectedPlan(repaired)
	}
	for _, out := range rc.Outcomes {
		if ctx.Err() != nil {
			return rc, false
		}
		if !out.Lowered {
			continue
		}
		// The two serial orders replay the arguments and rows the pair's
		// attempt ran on, from one base.
		low := out.low
		base, seedErr := plan.Seed(low.Rows)
		for first := 0; first < 2; first++ {
			rc.SCRuns++
			bad, err := false, seedErr
			if err == nil {
				bad, err = runViolates(plan, base, serialConfig(low, first))
			}
			if err != nil {
				rc.Errors = append(rc.Errors, fmt.Sprintf("%s: SC replay: %v", out.Pair.Txn, err))
				continue
			}
			if bad {
				rc.SCViolations++
			}
		}
		if repaired == nil {
			continue
		}
		if partial[out.Pair.Txn] || partial[out.Pair.Witness.Txn] {
			rc.SkippedPartial++
			continue
		}
		proj, reason := lowerProjected(repaired, out.sched, low)
		if reason != "" {
			rc.Errors = append(rc.Errors, fmt.Sprintf("%s: projection: %s", out.Pair.Txn, reason))
			continue
		}
		rc.RepairedRuns++
		bad := false
		rbase, err := rplan.Seed(proj.Rows)
		if err == nil {
			bad, err = runViolates(rplan, rbase, proj.Cfg)
		}
		if err != nil {
			rc.Errors = append(rc.Errors, fmt.Sprintf("%s: repaired replay: %v", out.Pair.Txn, err))
			continue
		}
		if bad {
			rc.RepairedViolations++
		}
	}
	return rc, true
}
