// Package anomaly implements the paper's static anomaly-detection oracle O
// (§3.2, §6): given a database program and a consistency model, it reports
// the anomalous access pairs — pairs of commands (c1, c2) within one
// transaction whose joint non-atomic visibility is witnessed by a
// serializability violation in some concurrent execution.
//
// Detection reduces to satisfiability of a bounded first-order encoding, as
// in the paper (which discharges the FOL formula with Z3): for each pair of
// transactions we instantiate two transaction instances A and B, with a
// strict total order ord over their commands (the execution counter), a
// visibility relation vis (which writes each command's local view
// contains), and equalities between the symbolic primary-key terms of their
// where clauses (record aliasing). A pair (c1, c2) of transaction T is
// anomalous iff the model's axioms admit an execution containing a
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
// Within them a query names at most four commands, and it is decided by
// enumeration over those alone (smallmodel.go) rather than by a solver.
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

// Report is the detector's output.
type Report struct {
	Model Model
	// Pairs is read-only: a DetectSession shares it, and the pairs in it,
	// with its memo and with every report it returns for the same program.
	// Its capacity is its length, so an append copies.
	Pairs   []AccessPair
	Queries int // cycle-satisfiability queries issued (memo hits included)
	// Solved counts the queries the small model decided. A DetectSession
	// answers repeats — within one pass and across passes — from its memo,
	// so Solved <= Queries.
	Solved int
	// EncodersPlanned counts the (txn, witness) pair plans this detection
	// computed (see SessionStats).
	EncodersPlanned int
}

// Count returns the number of anomalous access pairs.
func (r *Report) Count() int { return len(r.Pairs) }
