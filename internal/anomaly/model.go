// Package anomaly implements the paper's static anomaly-detection oracle O
// (§3.2, §6): given a database program and a consistency model, it reports
// the anomalous access pairs — pairs of commands (c1, c2) within one
// transaction whose joint non-atomic visibility is witnessed by a
// serializability violation in some concurrent execution.
//
// Detection reduces to satisfiability of a bounded first-order encoding,
// exactly as in the paper (which discharges the FOL formula with Z3): for
// each pair of transactions we instantiate two transaction instances A and
// B, introduce a strict total order ord over their commands (the execution
// counter), a visibility relation vis (which writes each command's local
// view contains), and equality atoms between the symbolic primary-key terms
// of their where clauses (record aliasing). A pair (c1, c2) of transaction
// T is anomalous iff the model's axioms admit an execution containing a
// dependency cycle that enters instance A at one command of the pair and
// leaves at the other:
//
//	dep(A.c1 → B.d1) ∧ dep(B.d2 → A.c2)
//
// with dep ∈ {wr, ww, rw} edges derived from ord/vis over aliasing
// accesses. The consistency models differ only in their vis axioms:
//
//	EC — no constraints beyond vis ⊆ ord (arbitrary subsets of commits);
//	CC — causal delivery: co(w1,w2) ∧ vis(w2,y) ⇒ vis(w1,y);
//	RR — a transaction that read T's state does not later observe T's
//	     newly committed results (the paper's repeatable read);
//	SC — strong atomicity + strong isolation (§3.2); every cycle becomes
//	     unsatisfiable, so SC reports zero anomalies.
//
// Bounding: two transaction instances, one execution of each command
// (commands under if/iterate are assumed to may-execute once). These are
// the same bounds used by the static analyses the paper builds on [13, 36].
package anomaly

import (
	"fmt"
	"strings"
)

// Model is the consistency model anomalies are detected under.
type Model int

// Consistency models of the paper's evaluation (§7.1, Table 1).
const (
	EC Model = iota // eventual consistency
	CC              // causal consistency
	RR              // repeatable read
	SC              // serializability (strong consistency)
)

func (m Model) String() string {
	switch m {
	case EC:
		return "EC"
	case CC:
		return "CC"
	case RR:
		return "RR"
	case SC:
		return "SC"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel parses a model name, case-insensitively. The CLIs and the
// service layer share this so every surface accepts the same spellings.
func ParseModel(s string) (Model, error) {
	switch strings.ToUpper(s) {
	case "EC":
		return EC, nil
	case "CC":
		return CC, nil
	case "RR":
		return RR, nil
	case "SC":
		return SC, nil
	default:
		return EC, fmt.Errorf("anomaly: unknown model %q (want EC, CC, RR, or SC)", s)
	}
}

// Kind classifies an anomalous access pair by its witnessing dependency
// pattern, mirroring the paper's Fig. 2 taxonomy.
type Kind string

// Anomaly kinds.
const (
	KindLostUpdate        Kind = "lost-update"
	KindDirtyRead         Kind = "dirty-read"
	KindNonRepeatableRead Kind = "non-repeatable-read"
	KindWriteSkew         Kind = "write-skew"
)

// EdgeKind is the dependency-edge type in a witness cycle.
type EdgeKind string

// Dependency edge kinds (Adya-style).
const (
	EdgeWR EdgeKind = "wr" // read dependency: target read source's write
	EdgeWW EdgeKind = "ww" // write dependency: target overwrote source
	EdgeRW EdgeKind = "rw" // anti-dependency: source read, target overwrote unseen
)

// Witness describes the concurrent transaction instance that exhibits the
// serializability violation for an access pair.
type Witness struct {
	Txn   string   // witnessing transaction
	D1    string   // command of the witness conflicting with C1
	D2    string   // command of the witness conflicting with C2
	Edge1 EdgeKind // kind of the A.c1 → B.d1 edge
	Edge2 EdgeKind // kind of the B.d2 → A.c2 edge
	// Schedule is the executable witness extracted from the satisfying
	// cycle model; nil unless detection recorded witnesses
	// (DetectSession.RecordWitnesses). It never feeds
	// String() or any golden output.
	Schedule *Schedule
}

// AccessPair is an anomalous access pair χ = (c1, f̄1, c2, f̄2) (§3.2).
type AccessPair struct {
	Txn     string
	C1      string
	F1      []string
	C2      string
	F2      []string
	Kind    Kind
	Witness Witness
}

// String renders the pair in the paper's notation:
//
//	txn: (c1, [f1 ...], c2, [f2 ...]) [kind via witness(d1,d2)]
func (a AccessPair) String() string {
	var buf [128]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the pair's String form to b and returns the extended
// buffer.
func (a AccessPair) AppendTo(b []byte) []byte {
	b = append(b, a.Txn...)
	b = append(b, ": ("...)
	b = append(b, a.C1...)
	b = append(b, ", "...)
	b = appendFields(b, a.F1)
	b = append(b, ", "...)
	b = append(b, a.C2...)
	b = append(b, ", "...)
	b = appendFields(b, a.F2)
	b = append(b, ") ["...)
	b = append(b, a.Kind...)
	b = append(b, " via "...)
	b = append(b, a.Witness.Txn...)
	b = append(b, '(')
	b = append(b, a.Witness.D1...)
	b = append(b, ',')
	b = append(b, a.Witness.D2...)
	return append(b, ")]"...)
}

// appendFields writes a field list as fmt's %v does: [a b c].
func appendFields(b []byte, fs []string) []byte {
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, f...)
	}
	return append(b, ']')
}

// UnknownPair names an access pair whose verdict a budgeted detection
// could not establish: no witness proved it anomalous, but at least one of
// its cycle queries ran out of solve budget, so it cannot be claimed clean
// either.
type UnknownPair struct {
	Txn string
	C1  string
	C2  string
}

// Report is the detector's output.
//
// Degraded reports: a budgeted detection that exhausted at least one solve
// is partial. What it still soundly claims (Nagar & Jagannathan's framing
// for partial weak-consistency detection): every pair in Pairs is a real
// anomaly — budgeted SAT answers come with a genuine model, and budgeted
// UNSAT answers are genuine refutations, so exhaustion only ever *removes*
// pairs from the report, never invents them. Pairs absent from both Pairs
// and UnknownPairs are proven clean. Pairs in UnknownPairs are unresolved —
// callers must treat them as possibly anomalous (the repair pipeline skips
// them rather than claiming them repaired).
type Report struct {
	Model   Model
	Pairs   []AccessPair
	Queries int // cycle-satisfiability queries issued (cache hits included)
	// Solved counts cache-miss queries solved on the SAT solver. A
	// DetectSession answers repeats — within one pass and across passes —
	// from its cache, so Solved <= Queries. State-parity replays are not
	// included here — see SessionStats.Replayed.
	Solved int
	// Degraded is set when any solve exhausted its budget; the report is
	// then a sound under-approximation (see the type comment).
	Degraded bool
	// Unknown is len(UnknownPairs): access pairs left unclassified.
	Unknown int
	// UnknownPairs lists the pairs whose verdict ran out of budget.
	UnknownPairs []UnknownPair
	// Exhausted counts the individual budget-exhausted SAT solves.
	Exhausted int
	// EncodersPlanned counts the (txn, witness) pair plans this detection
	// computed, EncodersBuilt the SAT encodings it constructed for them
	// (see SessionStats).
	EncodersPlanned int
	EncodersBuilt   int
}

// PairsByTxn groups the anomalous pairs by transaction name.
func (r *Report) PairsByTxn() map[string][]AccessPair {
	out := map[string][]AccessPair{}
	for _, p := range r.Pairs {
		out[p.Txn] = append(out[p.Txn], p)
	}
	return out
}

// Count returns the number of anomalous access pairs.
func (r *Report) Count() int { return len(r.Pairs) }
