// Package atropos is the public API of Atropos-Go, a reproduction of
// "Repairing Serializability Bugs in Distributed Database Programs via
// Automated Schema Refactoring" (PLDI 2021).
//
// Atropos takes a database program written in a small SQL-like DSL,
// statically detects serializability anomalies that weak consistency
// (eventual consistency, causal consistency, repeatable read) would admit,
// and repairs them by refactoring the database schema — merging commands
// after relocating fields between tables, and turning read-modify-write
// counters into append-only logging tables — rather than by strengthening
// consistency levels.
//
// Typical use:
//
//	prog, err := atropos.Parse(src)
//	report, err := atropos.Analyze(ctx, prog, atropos.EC)
//	result, err := atropos.Repair(ctx, prog, atropos.EC)
//	fmt.Println(atropos.Format(result.Program))
//
// Every analysis entry point takes a context: cancelling it (or letting a
// deadline expire) aborts detection between cycle queries. Behavior is
// tuned with functional options (WithCertify, WithClient, ...).
// For serving many callers from one process, NewEngine wraps the pipeline
// in a long-lived engine with a bounded worker pool and per-client
// detection sessions — the daemon cmd/atroposd exposes that engine over
// HTTP (DESIGN.md §12).
//
// The package also exposes the evaluation substrate: the nine benchmark
// programs of the paper's Table 1, the discrete-event geo-replicated
// cluster simulator behind Figs. 12-15, and the experiment drivers that
// regenerate every table and figure (see EXPERIMENTS.md).
package atropos

import (
	"context"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/engine"
	"atropos/internal/exp"
	"atropos/internal/refactor"
	"atropos/internal/repair"
	"atropos/internal/replay"
	"atropos/internal/sema"
	"atropos/internal/store"
)

// Program is a parsed, semantically checked database program.
type Program = ast.Program

// Model is the consistency model anomalies are detected under.
type Model = anomaly.Model

// Consistency models (Table 1's columns).
const (
	EC = anomaly.EC // eventual consistency
	CC = anomaly.CC // causal consistency
	RR = anomaly.RR // repeatable read
	SC = anomaly.SC // serializability
)

// AnomalyReport is the static detector's output.
type AnomalyReport = anomaly.Report

// AccessPair is one anomalous access pair χ = (c1, f̄1, c2, f̄2).
type AccessPair = anomaly.AccessPair

// RepairResult carries the refactored program, the introduced value
// correspondences, and the before/after anomaly sets.
type RepairResult = repair.Result

// ValueCorr is a value correspondence (R, R′, f, f′, θ, α).
type ValueCorr = refactor.ValueCorr

// ParseModel parses a consistency-model name ("EC", "cc", ...).
func ParseModel(s string) (Model, error) { return anomaly.ParseModel(s) }

// Parse parses and semantically checks DSL source. The program is
// read-only: its nodes, and a repeated source's Schemas/Txns arrays, are
// shared with every parse of the same source or declarations (the parser
// keeps an accepted src as given). Its header is its own to append to or
// reassign; to write an element of Schemas or Txns, copy the slice first.
func Parse(src string) (*Program, error) { return sema.Load(src) }

// Format renders a program back to DSL concrete syntax.
func Format(p *Program) string { return ast.Format(p) }

// Analyze runs the static anomaly oracle under the given model: one
// detection on a new DetectSession. Cancelling the context aborts the
// detection between cycle queries and returns its error.
func Analyze(ctx context.Context, p *Program, m Model) (*AnomalyReport, error) {
	return anomaly.NewSession(m).DetectContext(ctx, p)
}

// DetectSession is the anomaly oracle: it memoizes decided cycle queries,
// transactions' command facts and whole reports, so detecting across a
// sequence of related programs (the repair pipeline, an editing loop) only
// re-decides the queries that actually changed, and a program seen before
// is one lookup. What it reports never depends on what it remembers; its
// reports' pairs are shared with its memo and read-only.
type DetectSession = anomaly.DetectSession

// DetectStats aggregates a session's cycle-query counters and cache hits.
type DetectStats = anomaly.SessionStats

// NewDetectSession creates a detection session for one model.
func NewDetectSession(m Model) *DetectSession { return anomaly.NewSession(m) }

// Certificate is a witness-replay certificate: per anomalous pair, whether
// the detector's canonical witness model lowered into a directed simulator
// run that reproduced the claimed dependency cycle (DESIGN.md §11).
type Certificate = replay.Certificate

// RepairCertificate extends a Certificate with the repair's negative
// controls: serial replays of the original program and projected replays
// of the repaired one, both of which must show zero violations.
type RepairCertificate = replay.RepairCertificate

// Certify is Analyze plus replay: every reported pair is certified by
// executing its witness schedule, rebuilt from the report, in the cluster
// simulator. The report is identical to Analyze's.
func Certify(ctx context.Context, p *Program, m Model) (*Certificate, *AnomalyReport, error) {
	return replay.CertifyModelContext(ctx, p, m)
}

// RepairOption configures one Repair or Engine call. The zero configuration
// (no options) repairs without certification, detecting on a session of its
// own.
type RepairOption = repair.Option

// WithCertify replays every initial anomaly as an executable certificate
// with negative controls (RepairResult.Certificate).
func WithCertify(on bool) RepairOption { return repair.Certify(on) }

// WithClient tags the call with a client identity. Engine methods use it to
// reuse that client's cached detection session across requests; the plain
// entry points ignore it.
func WithClient(id string) RepairOption { return repair.Client(id) }

// WithSession injects an existing detection session (created with
// NewDetectSession for the same model) so its caches carry over this call.
func WithSession(s *DetectSession) RepairOption { return repair.Session(s) }

// Repair runs the full Atropos pipeline (Fig. 4): detect, preprocess,
// refactor, post-process. Cancelling the context aborts the pipeline
// between cycle queries. RepairResult.Elapsed records the total wall time (Table 1's
// Time column).
func Repair(ctx context.Context, p *Program, m Model, opts ...RepairOption) (*RepairResult, error) {
	return repair.Run(ctx, p, m, opts...)
}

// Engine is a long-lived repair service: a bounded worker pool with
// queue-depth backpressure (ErrOverloaded) and per-client detection
// sessions, kept with the programs it checked and the replies to repeated
// requests under one 64 MiB budget. Engine.Repair computes every time;
// Engine.RepairReply and Engine.Certify go through the reply memo, which
// a caller that never calls Reply.Store never hits. Results belong to the
// caller. One Engine serves concurrent callers; cmd/atroposd puts it
// behind HTTP. See DESIGN.md §12 for the lifecycle contract.
type Engine = engine.Engine

// EngineConfig sizes an Engine's worker pool and admission queue and sets
// its overload controls.
type EngineConfig = engine.Config

// EngineStats is an Engine's observable counters.
type EngineStats = engine.Stats

// ErrOverloaded is returned by Engine methods when every worker is busy and
// the admission queue is full; callers should back off and retry.
var ErrOverloaded = engine.ErrOverloaded

// NewEngine creates an Engine. The zero config defaults to GOMAXPROCS
// workers and a 4x-workers queue; what the engine retains between requests
// is bounded by its fixed 64 MiB budget.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// Benchmark is one of the paper's nine evaluation programs with its
// workload mix and population generator.
type Benchmark = benchmarks.Benchmark

// Scale sizes a benchmark's population and key skew.
type Scale = benchmarks.Scale

// TableRow is one initial record of a benchmark population.
type TableRow = store.TableRow

// Benchmarks returns the evaluation corpus in Table 1 order.
func Benchmarks() []*Benchmark { return benchmarks.All() }

// BenchmarkByName looks up a benchmark ("SmallBank", "TPC-C", ...).
func BenchmarkByName(name string) *Benchmark { return benchmarks.ByName(name) }

// Cluster simulation (the paper's deployment substrate, Figs. 12-15).
type (
	// ClusterConfig describes one simulated deployment run.
	ClusterConfig = cluster.Config
	// ClusterResult is its measurement.
	ClusterResult = cluster.Result
	// Topology is the 3-replica network geometry.
	Topology = cluster.Topology
	// ClusterMode selects a deployment's consistency (EC / SC / AT-SC).
	ClusterMode = cluster.Mode
)

// Deployment modes.
const (
	ModeEC   = cluster.ModeEC
	ModeSC   = cluster.ModeSC
	ModeATSC = cluster.ModeATSC
)

// The paper's three clusters.
var (
	VACluster     = cluster.VACluster
	USCluster     = cluster.USCluster
	GlobalCluster = cluster.GlobalCluster
)

// Simulate runs one deployment configuration.
func Simulate(cfg ClusterConfig) (ClusterResult, error) { return cluster.Run(cfg) }

// Experiment drivers (one per table/figure; see DESIGN.md §5).
type (
	// PerfConfig drives one Fig. 12-15 panel; its deployment simulations
	// run on GOMAXPROCS workers.
	PerfConfig = exp.PerfConfig
	// PerfResult holds its four measured curves.
	PerfResult = exp.PerfResult
	// Table1Row is one row of Table 1.
	Table1Row = exp.Table1Row
)

// Table1 regenerates Table 1 over the given benchmarks, fanning the
// benchmark × consistency-model grid out on GOMAXPROCS workers.
func Table1(benches []*Benchmark) ([]Table1Row, error) { return exp.Table1(benches) }

// FormatTable1 renders Table 1 rows.
func FormatTable1(rows []Table1Row) string { return exp.FormatTable1(rows) }

// Perf runs one performance panel (a Fig. 12-15 subfigure).
func Perf(cfg PerfConfig) (*PerfResult, error) { return exp.Perf(cfg) }

// MigrateRows materializes a refactored program's initial state from the
// original program's rows through the repair's value correspondences.
func MigrateRows(orig, refactored *Program, corrs []ValueCorr, rows []TableRow) ([]TableRow, error) {
	return refactor.Migrate(rows, orig, refactored, corrs)
}
