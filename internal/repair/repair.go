// Package repair implements the paper's repair procedure (§5, Fig. 10):
// given a program and a consistency model, it detects anomalous access
// pairs with the oracle, preprocesses the program (splitting commands so
// each participates in at most one pair), attempts to eliminate each pair
// by merging (after redirecting through a freshly introduced value
// correspondence when the commands live on different schemas) or by
// translating read-modify-write updates into logging-table inserts, and
// finally post-processes (dead-code elimination, opportunistic merging,
// schema garbage collection).
package repair

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/refactor"
	"atropos/internal/replay"
)

// Result is the outcome of a repair run.
type Result struct {
	// Program is the repaired program.
	Program *ast.Program
	// Corrs are the value correspondences introduced, in application order.
	Corrs []refactor.ValueCorr
	// Initial and Remaining are the anomalous access pairs before and
	// after repair (under the same consistency model).
	Initial   []anomaly.AccessPair
	Remaining []anomaly.AccessPair
	// Steps is a human-readable log of the refactorings applied.
	Steps []string
	// SerializableTxns are the transactions still involved in at least one
	// anomaly: the AT-SC deployment runs exactly these under SC (§7.2).
	SerializableTxns []string
	// Stats aggregates the oracle's query work across the pipeline's three
	// detection passes: Queries is what three cold detections would have
	// decided, Solved what the shared session actually did.
	Stats anomaly.SessionStats
	// Certificate is the replayed-witness certificate of the run: every
	// initial pair replayed against the original program, plus the SC and
	// repaired-program negative controls. Only populated with
	// Options.Certify.
	Certificate *replay.RepairCertificate
	// Elapsed is the wall-clock duration of the run, measured inside the
	// pipeline so every entry point reports the same number.
	Elapsed time.Duration

	// Degraded is set when the run was cut short by a per-stage deadline
	// (Options.Stages), and the result is therefore partial. What a
	// degraded result still soundly claims: Program is a valid refactoring
	// of the input, every pair in Initial/Remaining is a real anomaly, and
	// running SerializableTxns under SC removes every anomaly the run knew
	// about or could not rule out. Only completeness is lost: some pairs
	// may have gone undetected or unrepaired.
	Degraded bool
	// DegradedStages names the pipeline stages whose deadline allowance
	// expired: "detect", "repair", "certify".
	DegradedStages []string

	// stepBuf is the reused formatting scratch behind stepf: the pair loop
	// logs one step per access pair, and formatting each into a fresh
	// Sprintf string was measurable allocation churn on large benchmarks.
	stepBuf []byte
}

// stepf appends one formatted entry to Steps, formatting through the
// reused scratch buffer so only the retained string itself allocates.
func (r *Result) stepf(format string, args ...any) {
	r.stepBuf = fmt.Appendf(r.stepBuf[:0], format, args...)
	r.Steps = append(r.Steps, string(r.stepBuf))
}

// beginPairStep starts the per-pair entry "<verb> <pair>: <desc>" in the
// scratch buffer, the pair rendered straight into it; the repair attempt
// appends desc (outcome), and endPairStep logs the entry. The verb is
// known only after the attempt, so the entry starts as "unrepaired" and a
// repaired pair's drops the "un".
func (r *Result) beginPairStep(pair anomaly.AccessPair) {
	r.stepBuf = append(pair.AppendTo(append(r.stepBuf[:0], "unrepaired "...)), ": "...)
}

func (r *Result) endPairStep(repaired bool) {
	step := r.stepBuf
	if repaired {
		step = step[len("un"):]
	}
	r.Steps = append(r.Steps, string(step))
}

// outcome appends a repair attempt's description, the concatenation of
// desc, to the step buffer and returns ok.
func (r *Result) outcome(ok bool, desc ...string) bool {
	for _, d := range desc {
		r.stepBuf = append(r.stepBuf, d...)
	}
	return ok
}

// failed appends "what (err)" to the step buffer, why a rule did not
// apply, and returns false.
func (r *Result) failed(what string, err error) bool {
	r.stepBuf = append(append(r.stepBuf, what...), " ("...)
	// A rule's own error appends its text without building the string.
	if re, ok := err.(*refactor.Error); ok {
		r.stepBuf = re.AppendTo(r.stepBuf)
	} else {
		r.stepBuf = append(r.stepBuf, err.Error()...)
	}
	r.stepBuf = append(r.stepBuf, ')')
	return false
}

// RepairedCount returns how many of the initial pairs were eliminated.
func (r *Result) RepairedCount() int { return len(r.Initial) - len(r.Remaining) }

// Options configures a repair run.
type Options struct {
	// Certify replays, after the pipeline, every initial pair as an
	// executable certificate with its negative controls
	// (Result.Certificate).
	Certify bool
	// Session, when non-nil, is an externally owned detection session the
	// pipeline's three passes run through instead of a private one. The
	// engine injects per-client sessions here so repeated repairs of
	// related programs share cached work across requests. The session's
	// model must equal the repair model.
	Session *anomaly.DetectSession
	// Client is an opaque caller identity, carried for the service layer's
	// session keying and logs; the pipeline itself ignores it.
	Client string
	// Stages splits the run into per-stage deadline allowances so one slow
	// stage degrades instead of consuming the caller's whole deadline.
	// Zero fields leave the stage bounded only by ctx.
	Stages StageDeadlines
}

// StageDeadlines carves a request deadline into per-stage allowances. The
// three detection passes share Detect (each pass draws on what the earlier
// ones left); the pair-repair loop stops starting new pairs once Repair is
// spent; certificate replay is cut off after Certify, returning a partial
// certificate. An expired stage marks the Result degraded — it never fails
// the request (the caller's own ctx still aborts everything).
type StageDeadlines struct {
	Detect  time.Duration
	Repair  time.Duration
	Certify time.Duration
}

// Split carves a total deadline into the default stage proportions: 55%
// detect, 25% repair, 20% certify. The engine applies it to a request's
// remaining deadline when the caller set no explicit stages.
func Split(total time.Duration) StageDeadlines {
	if total <= 0 {
		return StageDeadlines{}
	}
	return StageDeadlines{
		Detect:  total * 55 / 100,
		Repair:  total * 25 / 100,
		Certify: total * 20 / 100,
	}
}

// Option is a functional setting for Run, the context-first entry point.
type Option func(*Options)

// DefaultParallelism returns 1: detection has no width.
//
// Deprecated: bench/probes.go is its last caller; it goes with the next
// change to the benchmark.
func DefaultParallelism() int { return 1 }

// Certify enables post-pipeline certificate replay.
func Certify(on bool) Option { return func(o *Options) { o.Certify = on } }

// Session injects an externally owned detection session (see
// Options.Session).
func Session(s *anomaly.DetectSession) Option { return func(o *Options) { o.Session = s } }

// Client tags the run with a caller identity (see Options.Client).
func Client(id string) Option { return func(o *Options) { o.Client = id } }

// BuildOptions folds functional options over the zero configuration. The
// engine uses it to inspect and amend options before dispatching.
func BuildOptions(opts ...Option) Options {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Run is the entry point: the full Fig. 10 pipeline under the
// given model, configured by functional options, aborted (mid-detection)
// when ctx is cancelled or its deadline passes.
func Run(ctx context.Context, prog *ast.Program, model anomaly.Model, opts ...Option) (*Result, error) {
	return RunWith(ctx, prog, model, BuildOptions(opts...))
}

// RunWith is Run with a pre-built Options value (the engine amends one
// before dispatching).
func RunWith(ctx context.Context, prog *ast.Program, model anomaly.Model, opts Options) (*Result, error) {
	start := time.Now()
	session := opts.Session
	if session == nil {
		session = anomaly.NewSession(model)
	} else if session.Model() != model {
		return nil, fmt.Errorf("repair: injected session detects under %s, not %s", session.Model(), model)
	}

	// Snapshot injected-session statistics so Result.Stats reports this
	// run's work, not the shared session's lifetime aggregate. For a
	// private session the snapshot is zero and the subtraction is a no-op.
	statsBefore := session.Stats()

	res := &Result{}
	// degrade records one stage's allowance expiring.
	degrade := func(stage string) {
		res.Degraded = true
		if !slices.Contains(res.DegradedStages, stage) {
			res.DegradedStages = append(res.DegradedStages, stage)
		}
	}
	// finish computes the run's stats and elapsed time; every return path
	// (complete or degraded) goes through it.
	finish := func() {
		after := session.Stats()
		res.Stats = anomaly.SessionStats{
			Queries:   after.Queries - statsBefore.Queries,
			Solved:    after.Solved - statsBefore.Solved,
			Replayed:  after.Replayed - statsBefore.Replayed,
			QueryHits: after.QueryHits - statsBefore.QueryHits,

			EncodersPlanned: after.EncodersPlanned - statsBefore.EncodersPlanned,
		}
		res.Elapsed = time.Since(start)
	}

	// The three detection passes share the detect-stage allowance: each
	// pass runs under a context bounded by what the earlier passes left.
	// An expired stage is a soft outcome (expired=true), not an error —
	// unless the caller's own ctx died, which always aborts the request.
	detectRemaining := opts.Stages.Detect
	runDetect := func(p *ast.Program) (rep *anomaly.Report, expired bool, err error) {
		if opts.Stages.Detect <= 0 {
			rep, err = session.DetectContext(ctx, p)
			return rep, false, err
		}
		if detectRemaining <= 0 {
			return nil, true, nil
		}
		t0 := time.Now()
		dctx, cancel := context.WithTimeout(ctx, detectRemaining)
		rep, err = session.DetectContext(dctx, p)
		cancel()
		detectRemaining -= time.Since(t0)
		if err != nil {
			if dctx.Err() != nil && ctx.Err() == nil {
				return nil, true, nil
			}
			return nil, false, err
		}
		return rep, false, nil
	}

	initial, expired, err := runDetect(prog)
	if err != nil {
		return nil, err
	}
	if expired {
		// The initial pass never finished: nothing is known, so degrade to
		// the sound catch-all — leave the program untouched and run every
		// transaction under SC.
		degrade("detect")
		res.Program = prog
		for _, t := range prog.Txns {
			res.SerializableTxns = append(res.SerializableTxns, t.Name)
		}
		res.stepf("detect stage expired before the initial pass; conservatively serializing all %d transactions", len(prog.Txns))
		finish()
		return res, nil
	}
	res.Initial = initial.Pairs

	// The refactoring engine is functional (copy-on-write by default), so
	// the pipeline threads programs instead of mutating a private clone:
	// prog is never touched, and each step shares everything it does not
	// edit with its predecessor.
	p := preprocess(prog, initial.Pairs, res)

	// Re-detect: preprocessing changed command labels (U4 → U4.1, U4.2).
	rep, expired, err := runDetect(p)
	if err != nil {
		return nil, err
	}
	if expired {
		// Post-preprocessing pairs are unknown, so nothing can be repaired;
		// serialize every transaction the initial pass found anomalous.
		degrade("detect")
		res.Program = p
		seen := map[string]bool{}
		for _, pair := range initial.Pairs {
			if !seen[pair.Txn] {
				seen[pair.Txn] = true
				res.SerializableTxns = append(res.SerializableTxns, pair.Txn)
			}
		}
		res.stepf("detect stage expired after preprocessing; conservatively serializing %d anomalous transactions", len(res.SerializableTxns))
		finish()
		return res, nil
	}

	// Pair-repair loop: the stage allowance is checked between pairs, so a
	// slow refactoring degrades by skipping the tail instead of running
	// the request's whole deadline down.
	var repairDeadline time.Time
	if opts.Stages.Repair > 0 {
		repairDeadline = time.Now().Add(opts.Stages.Repair)
	}
	var logs loggingMemo
	for pi, pair := range rep.Pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !repairDeadline.IsZero() && time.Now().After(repairDeadline) {
			degrade("repair")
			res.stepf("repair stage expired; skipped %d unprocessed pairs", len(rep.Pairs)-pi)
			break
		}
		res.beginPairStep(pair)
		p2, ok := tryRepair(p, pair, res, &logs)
		if ok {
			p = p2
		}
		res.endPairStep(ok)
	}

	moved := map[string]map[string]bool{}
	for _, c := range res.Corrs {
		if moved[c.SrcTable] == nil {
			moved[c.SrcTable] = map[string]bool{}
		}
		moved[c.SrcTable][c.SrcField] = true
	}
	p = postprocess(p, res, moved)

	final, expired, err := runDetect(p)
	if err != nil {
		return nil, err
	}
	res.Program = p
	seen := map[string]bool{}
	serialize := func(txn string) {
		if !seen[txn] {
			seen[txn] = true
			res.SerializableTxns = append(res.SerializableTxns, txn)
		}
	}
	if expired {
		// The final pass never confirmed what the repairs eliminated:
		// Remaining is unknown, so serialize every transaction the middle
		// pass saw a pair in.
		degrade("detect")
		for _, pair := range rep.Pairs {
			serialize(pair.Txn)
		}
		res.stepf("detect stage expired before the final pass; conservatively serializing %d transactions", len(res.SerializableTxns))
	} else {
		res.Remaining = final.Pairs
		for _, pair := range final.Pairs {
			serialize(pair.Txn)
		}
	}
	if opts.Certify {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cctx, cancel := ctx, func() {}
		if opts.Stages.Certify > 0 {
			cctx, cancel = context.WithTimeout(ctx, opts.Stages.Certify)
		}
		cert, complete := replay.CertifyRepairContext(cctx, prog, res.Program, initial, res.SerializableTxns)
		cancel()
		if !complete {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			degrade("certify")
			res.stepf("certify stage expired; certificate covers %d of %d pairs", cert.Total, len(initial.Pairs))
		}
		res.Certificate = cert
	}
	finish()
	return res, nil
}

// preprocess splits multi-field commands so that each database command is
// involved in at most one anomalous access pair, provided the split fields
// are not accessed together elsewhere in the program (§5).
func preprocess(p *ast.Program, pairs []anomaly.AccessPair, res *Result) *ast.Program {
	// Only a command with two or more fields of its own can be split, so
	// only such a command's field groups are gathered.
	var groups map[cmdKey][][]string
	add := func(txn, label string, fields []string) {
		if len(fields) == 0 {
			return
		}
		if t := p.Txn(txn); t == nil || ownCount(ast.FindCommand(t, label)) < 2 {
			return
		}
		if groups == nil {
			groups = map[cmdKey][][]string{}
		}
		k := cmdKey{txn, label}
		groups[k] = append(groups[k], fields)
	}
	for _, pair := range pairs {
		add(pair.Txn, pair.C1, pair.F1)
		add(pair.Txn, pair.C2, pair.F2)
	}
	// First compute a split plan for every candidate command, then apply
	// the plans whose field groups are not co-accessed by any command that
	// is not itself being split compatibly.
	plans := map[cmdKey][][]string{}
	for k, sets := range groups {
		own := ownFields(ast.FindCommand(p.Txn(k.txn), k.label))
		if partition := buildPartition(own, sets); len(partition) >= 2 {
			plans[k] = partition
		}
	}
	// Apply plans in a deterministic order: plan interactions
	// (coAccessedElsewhere) and the step log must not depend on map
	// iteration order — the incremental engine's equivalence tests compare
	// pipelines step by step.
	planKeys := slices.SortedFunc(maps.Keys(plans), func(a, b cmdKey) int {
		if c := strings.Compare(a.txn, b.txn); c != 0 {
			return c
		}
		return strings.Compare(a.label, b.label)
	})
	for _, k := range planKeys {
		partition := plans[k]
		t := p.Txn(k.txn)
		c := ast.FindCommand(t, k.label)
		if c == nil {
			continue
		}
		if coAccessedElsewhere(p, k.txn, k.label, c.TableName(), partition, plans) {
			continue
		}
		if np, err := refactor.Split(p, k.txn, k.label, partition); err == nil {
			p = np
			res.stepf("split %s.%s into %d commands %v", k.txn, k.label, len(partition), partition)
		}
	}
	return p
}

type cmdKey struct{ txn, label string }

// ownFields returns the fields a command could be split along: an update's
// set fields, a select's named columns; none for an insert, a select * or
// a nil command.
func ownFields(c ast.DBCommand) []string {
	if u, ok := c.(*ast.Update); ok {
		own := make([]string, len(u.Sets))
		for i, a := range u.Sets {
			own[i] = a.Field
		}
		return own
	}
	if sel, ok := c.(*ast.Select); ok && !sel.Star {
		return sel.Fields
	}
	return nil
}

// ownCount is len(ownFields(c)).
func ownCount(c ast.DBCommand) int {
	if u, ok := c.(*ast.Update); ok {
		return len(u.Sets)
	}
	return len(ownFields(c))
}

// buildPartition groups a command's fields: fields named together by some
// access pair stay together, overlapping groups are unioned, and leftover
// fields form one final group.
func buildPartition(own []string, sets [][]string) [][]string {
	ownSet := map[string]bool{}
	for _, f := range own {
		ownSet[f] = true
	}
	var parts []map[string]bool
	for _, s := range sets {
		g := map[string]bool{}
		for _, f := range s {
			if ownSet[f] {
				g[f] = true
			}
		}
		if len(g) == 0 {
			continue
		}
		// Union with any overlapping existing group.
		merged := g
		var next []map[string]bool
		for _, existing := range parts {
			if overlaps(existing, merged) {
				for f := range existing {
					merged[f] = true
				}
			} else {
				next = append(next, existing)
			}
		}
		parts = append(next, merged)
	}
	covered := map[string]bool{}
	for _, g := range parts {
		for f := range g {
			covered[f] = true
		}
	}
	var leftover []string
	for _, f := range own {
		if !covered[f] {
			leftover = append(leftover, f)
		}
	}
	var out [][]string
	for _, g := range parts {
		var fs []string
		for _, f := range own { // preserve declaration order
			if g[f] {
				fs = append(fs, f)
			}
		}
		out = append(out, fs)
	}
	if len(leftover) > 0 {
		out = append(out, leftover)
	}
	return out
}

func overlaps(a, b map[string]bool) bool {
	for f := range a {
		if b[f] {
			return true
		}
	}
	return false
}

// coAccessedElsewhere reports whether any other command accesses fields
// from two different groups of the partition — splitting would then risk
// introducing new anomalies (§5). A command that is itself planned to be
// split with a compatible partition (each of its groups intersects at most
// one of ours) does not block: after both splits no command co-accesses
// the separated fields.
func coAccessedElsewhere(p *ast.Program, txn, label, table string, partition [][]string, plans map[cmdKey][][]string) bool {
	groupOf := map[string]int{}
	for i, g := range partition {
		for _, f := range g {
			groupOf[f] = i
		}
	}
	for _, t := range p.Txns {
		for _, c := range t.Commands() {
			if t.Name == txn && c.CmdLabel() == label {
				continue
			}
			if c.TableName() != table {
				continue
			}
			if other, ok := plans[cmdKey{t.Name, c.CmdLabel()}]; ok && refines(other, groupOf) {
				continue
			}
			acc := ast.CommandAccess(c, p.Schema(table))
			seen := -1
			for _, f := range append(append([]string(nil), acc.Reads...), acc.Writes...) {
				g, ok := groupOf[f]
				if !ok {
					continue
				}
				if seen >= 0 && g != seen {
					return true
				}
				seen = g
			}
		}
	}
	return false
}

// refines reports whether each group of the other command's partition
// touches at most one of our groups.
func refines(other [][]string, groupOf map[string]int) bool {
	for _, g := range other {
		seen := -1
		for _, f := range g {
			gi, ok := groupOf[f]
			if !ok {
				continue
			}
			if seen >= 0 && gi != seen {
				return false
			}
			seen = gi
		}
	}
	return true
}

// tryRepair implements try_repair of Fig. 10. It returns the repaired
// program and whether it succeeded, and describes what happened in res's
// step buffer.
func tryRepair(p *ast.Program, pair anomaly.AccessPair, res *Result, logs *loggingMemo) (*ast.Program, bool) {
	t := p.Txn(pair.Txn)
	if t == nil {
		return p, res.outcome(false, "transaction vanished")
	}
	c1 := ast.FindCommand(t, pair.C1)
	c2 := ast.FindCommand(t, pair.C2)
	if c1 == nil || c2 == nil {
		return p, res.outcome(true, "already repaired (command merged away)")
	}
	desc := len(res.stepBuf)
	if sameKind(c1, c2) {
		if c1.TableName() == c2.TableName() {
			if np, err := refactor.Merge(p, pair.Txn, pair.C1, pair.C2); err == nil {
				return np, res.outcome(true, "merged ", pair.C1, " and ", pair.C2)
			} else {
				res.failed("merge failed", err)
				return tryLogging(p, pair, desc, res, logs)
			}
		}
		if np, corr, err := tryRedirect(p, t, c1, c2); err == nil {
			if np2, err2 := refactor.Merge(np, pair.Txn, pair.C1, pair.C2); err2 == nil {
				res.Corrs = append(res.Corrs, corr)
				return np2, res.outcome(true, "redirected via ", corr.String(), " then merged")
			} else {
				res.failed("post-redirect merge failed", err2)
				return tryLogging(p, pair, desc, res, logs)
			}
		}
	}
	res.outcome(false, "commands not mergeable")
	return tryLogging(p, pair, desc, res, logs)
}

func sameKind(a, b ast.DBCommand) bool {
	switch a.(type) {
	case *ast.Select:
		_, ok := b.(*ast.Select)
		return ok
	case *ast.Update:
		_, ok := b.(*ast.Update)
		return ok
	case *ast.Insert:
		_, ok := b.(*ast.Insert)
		return ok
	}
	return false
}

// errNotRedirectable is tryRedirect's own failure: the pair loop reads only
// that the attempt failed, so it carries no detail.
var errNotRedirectable = errors.New("repair: the commands are not redirectable")

// tryRedirect implements the redirect attempt of Fig. 10 line 5: introduce
// a value correspondence moving c2's field into c1's schema, deriving the
// record correspondence θ̂ from the commands' where clauses (§5: "by
// analyzing the commands' where clauses and identifying equivalent
// expressions used in their constraints").
func tryRedirect(p *ast.Program, t *ast.Txn, c1, c2 ast.DBCommand) (*ast.Program, refactor.ValueCorr, error) {
	srcTable := c2.TableName()
	dstTable := c1.TableName()
	srcSchema := p.Schema(srcTable)
	dstSchema := p.Schema(dstTable)
	if srcSchema == nil || dstSchema == nil {
		return nil, refactor.ValueCorr{}, errNotRedirectable
	}
	srcField, err := singleField(c2)
	if err != nil {
		return nil, refactor.ValueCorr{}, err
	}
	theta, err := deriveTheta(p, t, c1, c2, srcSchema, dstSchema)
	if err != nil {
		return nil, refactor.ValueCorr{}, err
	}
	f := srcSchema.Field(srcField)
	dstField := refactor.DstFieldName(dstSchema, srcField)
	np, err := refactor.IntroField(p, dstTable, ast.Field{Name: dstField, Type: f.Type})
	if err != nil {
		return nil, refactor.ValueCorr{}, err
	}
	corr := refactor.ValueCorr{
		SrcTable: srcTable, SrcField: srcField,
		DstTable: dstTable, DstField: dstField,
		Theta: theta, Agg: ast.AggAny,
	}
	np, err = refactor.ApplyCorr(np, corr)
	if err != nil {
		return nil, refactor.ValueCorr{}, err
	}
	return np, corr, nil
}

// singleField returns the unique field a (post-preprocessing) select or
// update accesses, or errNotRedirectable.
func singleField(c ast.DBCommand) (string, error) {
	switch x := c.(type) {
	case *ast.Select:
		if !x.Star && len(x.Fields) == 1 {
			return x.Fields[0], nil
		}
	case *ast.Update:
		if len(x.Sets) == 1 {
			return x.Sets[0].Field, nil
		}
	}
	return "", errNotRedirectable
}

// deriveTheta maps each primary-key field of c2's schema to a field of
// c1's schema carrying the same value, using three equivalence patterns:
//
//	(a) the pin is x.g where x was selected from c1's table — θ̂(f) = g;
//	(b) c1 is an update setting g = e and the pin equals e — θ̂(f) = g;
//	(c) c1's where pins its own key field g to the same expression — θ̂(f) = g.
//
// It returns errNotRedirectable when c2's where clause is not a key
// equality conjunction or a key field matches no pattern.
func deriveTheta(p *ast.Program, t *ast.Txn, c1, c2 ast.DBCommand, srcSchema, dstSchema *ast.Schema) (map[string]string, error) {
	pins, ok := ast.CommandWellFormed(c2, srcSchema)
	if !ok {
		return nil, errNotRedirectable
	}
	theta := map[string]string{}
	for _, pk := range srcSchema.PrimaryKey() {
		pin := pins.Of(pk.Name)
		g := ""
		// (a) lookup through a select on the destination table.
		if fa, isFA := pin.(*ast.FieldAt); isFA && fa.Index == nil {
			if sel := ast.FindSelect(t, fa.Var); sel != nil && sel.Table == dstSchema.Name {
				g = fa.Field
			}
		}
		// (b) pinned by one of c1's own assignments.
		if g == "" {
			if u, isU := c1.(*ast.Update); isU {
				for _, a := range u.Sets {
					if ast.EqualExpr(a.Expr, pin) {
						g = a.Field
						break
					}
				}
			}
		}
		// (c) c1 pins one of its key fields to the same expression; the
		// first such field in clause order.
		if g == "" {
			if dstPins, ok := ast.CommandWellFormed(c1, dstSchema); ok {
				for _, q := range dstPins {
					if ast.EqualExpr(q.Expr, pin) {
						g = q.Field
						break
					}
				}
			}
		}
		if g == "" || dstSchema.Field(g) == nil {
			return nil, errNotRedirectable
		}
		theta[pk.Name] = g
	}
	return theta, nil
}

// tryLogging implements try_logging of Fig. 10: translate the pair's
// update into an insert on a fresh logging schema; succeed only if the
// pair's select becomes dead code (§5). The introduced correspondence is
// recorded in res for containment checking and data migration. The step
// buffer describes, from desc on, why the pair's earlier rules failed: a
// failure appends its reason, a success replaces the description.
func tryLogging(p *ast.Program, pair anomaly.AccessPair, desc int, res *Result, logs *loggingMemo) (*ast.Program, bool) {
	t := p.Txn(pair.Txn)
	c1 := ast.FindCommand(t, pair.C1)
	c2 := ast.FindCommand(t, pair.C2)
	var sel *ast.Select
	var upd *ast.Update
	for _, c := range []ast.DBCommand{c1, c2} {
		switch x := c.(type) {
		case *ast.Select:
			sel = x
		case *ast.Update:
			upd = x
		}
	}
	if sel == nil || upd == nil {
		return p, res.outcome(false, "; logging needs a select/update pair")
	}
	if len(upd.Sets) != 1 {
		return p, res.outcome(false, "; update sets multiple fields")
	}
	field := upd.Sets[0].Field
	np, corr, err := logs.logged(p, upd.Table, field)
	if err != nil {
		return p, res.failed("; logging failed", err)
	}
	if !refactor.IsDeadSelect(np, pair.Txn, sel.Label) {
		return p, res.outcome(false, "; logging left the select live")
	}
	res.Corrs = append(res.Corrs, corr)
	res.stepBuf = res.stepBuf[:desc]
	return np, res.outcome(true, "logged ", upd.Table, ".", field, " via ", corr.DstTable)
}

// loggingMemo remembers, for one repair run, the logger rule's outcome on
// the current program. BuildLoggerSchema followed by ApplyCorr is a pure
// function of (program, table, field), and the pair loop probes the same
// table and field again for every pair on it until some repair changes
// the program. The memo holds the answers for one program node only and
// forgets them when asked about another.
type loggingMemo struct {
	prog *ast.Program
	outs map[[2]string]loggedOutcome
}

type loggedOutcome struct {
	prog *ast.Program
	corr refactor.ValueCorr
	err  error
}

// logged returns the program with (table, field) moved into a fresh
// logging schema, and the logger correspondence that did it.
func (m *loggingMemo) logged(p *ast.Program, table, field string) (*ast.Program, refactor.ValueCorr, error) {
	if m.prog != p {
		if m.outs == nil {
			m.outs = map[[2]string]loggedOutcome{}
		}
		m.prog = p
		clear(m.outs)
	}
	k := [2]string{table, field}
	o, ok := m.outs[k]
	if !ok {
		o.prog, o.corr, o.err = refactor.BuildLoggerSchema(p, table, field)
		if o.err == nil {
			o.prog, o.err = refactor.ApplyCorr(o.prog, o.corr)
		}
		m.outs[k] = o
	}
	return o.prog, o.corr, o.err
}

// postprocess removes dead code, merges whatever became mergeable, and
// garbage-collects the schemas and fields the refactoring obsoleted
// (Fig. 10 post_process). It returns the cleaned program.
func postprocess(p *ast.Program, res *Result, moved map[string]map[string]bool) *ast.Program {
	p, n := refactor.RemoveDeadSelects(p)
	if n > 0 {
		res.stepf("removed %d dead selects", n)
	}
	p, merged := mergeAll(p)
	if merged > 0 {
		res.stepf("merged %d command pairs in post-processing", merged)
	}
	p, n = refactor.RemoveDeadSelects(p)
	if n > 0 {
		res.stepf("removed %d dead selects", n)
	}
	p, removed := refactor.GCSchemas(p, moved)
	if len(removed) > 0 {
		res.stepf("dropped obsolete tables %v", removed)
	}
	return p
}

// mergeAll exhaustively merges same-kind commands that provably select the
// same records. Failing probes are free — Merge validates before building
// anything — and a successful merge path-copies only the merged
// transaction. The scan continues from the merge point: merging c2 into c1
// removes c2 and may change c1's shape, so the inner scan resumes at the
// same i with the refreshed command list instead of restarting the whole
// transaction — a merge can only enable pairs involving commands at or
// after i, and the outer fixpoint loop catches pairs a merge enabled
// earlier in the list.
func mergeAll(p *ast.Program) (*ast.Program, int) {
	merged := 0
	for ti := range p.Txns {
		name := p.Txns[ti].Name
		for {
			progress := false
			cmds := p.Txns[ti].Commands()
			for i := 0; i < len(cmds); i++ {
				for j := i + 1; j < len(cmds); j++ {
					if cmds[i].TableName() != cmds[j].TableName() || !sameKind(cmds[i], cmds[j]) {
						continue
					}
					if np, err := refactor.Merge(p, name, cmds[i].CmdLabel(), cmds[j].CmdLabel()); err == nil {
						p = np
						merged++
						progress = true
						// c2 is gone and c1 changed: refresh the list and
						// rescan c1 against its new successors.
						cmds = p.Txns[ti].Commands()
						j = i
					}
				}
			}
			if !progress {
				break
			}
		}
	}
	return p, merged
}
