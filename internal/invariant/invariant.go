// Package invariant implements the paper's SmallBank application-level
// invariant study (§7.1, Appendix A.2). Three invariants are checked over
// randomized concurrent executions under eventual consistency:
//
//  1. balances never go negative (the overdraft guard must hold);
//  2. accounts reflect the full history of deposits (no lost updates);
//  3. clients always witness a consistent joint state of their savings and
//     checking accounts (no intermediate transfer states).
//
// Each invariant is driven by a scenario: two concurrent transaction
// invocations whose serializable outcomes are known, executed repeatedly as
// directed runs of the cluster simulator's executor — a random interleaving
// of the two instances' commands and, per pair of commands, a coin flip on
// whether the later one's view holds the earlier one's writes (EC: any
// subset of the other instance's batches). A run that produces a result
// outside the serializable outcome set is a violation. The same scenarios
// run against the original and the repaired program (the repaired program
// keeps the transaction names and signatures, so the scenarios transfer
// verbatim; its initial state comes from the data migration).
package invariant

import (
	"fmt"
	"math/rand"

	"atropos/internal/ast"
	"atropos/internal/cluster"
	"atropos/internal/refactor"
	"atropos/internal/store"
)

// Report summarizes violations found per invariant.
type Report struct {
	Runs int
	// Violations[i] counts runs violating invariant i+1.
	Violations [3]int
}

// ViolatedCount returns how many of the three invariants were violated at
// least once.
func (r Report) ViolatedCount() int {
	n := 0
	for _, v := range r.Violations {
		if v > 0 {
			n++
		}
	}
	return n
}

func (r Report) String() string {
	return fmt.Sprintf("runs=%d  I1(non-negative)=%d  I2(deposit-history)=%d  I3(joint-view)=%d  violated=%d/3",
		r.Runs, r.Violations[0], r.Violations[1], r.Violations[2], r.ViolatedCount())
}

// Config drives CheckSmallBank.
type Config struct {
	// Program is the SmallBank program (original or repaired).
	Program *ast.Program
	// Corrs are the value correspondences of the repair (empty for the
	// original program); they drive the initial-state migration.
	Corrs []refactor.ValueCorr
	// Original is the program the rows below belong to. When Program is a
	// repaired variant, rows are migrated through Corrs.
	Original *ast.Program
	Rows     []store.TableRow
	RunsPer  int // runs per scenario (default 40)
	Seed     int64
}

// scenario is one invariant's race: two instances and the outcomes a serial
// execution of them could produce.
type scenario struct {
	txns [2]cluster.DirectedTxn
	// savings0, when non-zero, is customer 0's savings balance at the start
	// (the configured rows give every account 1000).
	savings0 int64
	// The outcome is balance(cust) run serially on the state the run
	// converged to, or, with cust < 0, what the second instance returned.
	cust         int64
	serializable func(outcome int64) bool
}

type ints map[string]int64

func call(txn string, args ints) cluster.DirectedTxn {
	vals := map[string]store.Value{}
	for name, v := range args {
		vals[name] = store.IntV(v)
	}
	return cluster.DirectedTxn{Name: txn, Args: vals}
}

var scenarios = []scenario{
	// Non-negative balance: savings starts at 100 and two withdrawals of 80
	// race. Serially at most one passes the overdraft guard, leaving 20 +
	// checking 1000; a total below 1000 means savings went negative.
	{
		txns: [2]cluster.DirectedTxn{
			call("transactSavings", ints{"cust": 0, "amt": -80}),
			call("transactSavings", ints{"cust": 0, "amt": -80}),
		},
		savings0:     100,
		serializable: func(total int64) bool { return total >= 1000 },
	},
	// Deposit history: two deposits of 10 into one checking account race.
	// Serializable outcome: savings 1000 + checking 1000 + 20; anything else
	// lost a deposit.
	{
		txns: [2]cluster.DirectedTxn{
			call("depositChecking", ints{"cust": 1, "amt": 10}),
			call("depositChecking", ints{"cust": 1, "amt": 10}),
		},
		cust:         1,
		serializable: func(total int64) bool { return total == 2020 },
	},
	// Joint view: a client reads balance(2) while amalgamate(2,3) moves all
	// of customer 2's funds to customer 3. The reader's serializable
	// outcomes are 2000 (before) and 0 (after); any other value witnessed an
	// intermediate transfer state.
	{
		txns: [2]cluster.DirectedTxn{
			call("amalgamate", ints{"src": 2, "dst": 3}),
			call("balance", ints{"cust": 2}),
		},
		cust:         -1,
		serializable: func(seen int64) bool { return seen == 2000 || seen == 0 },
	},
}

// CheckSmallBank executes the three invariant scenarios and reports
// violations.
func CheckSmallBank(cfg Config) (Report, error) {
	if cfg.RunsPer == 0 {
		cfg.RunsPer = 40
	}
	rep := Report{}
	plan := cluster.NewDirectedPlan(cfg.Program)
	for i, sc := range scenarios {
		base, err := seed(cfg, plan, sc)
		if err != nil {
			return rep, fmt.Errorf("invariant %d: %w", i+1, err)
		}
		for run := 0; run < cfg.RunsPer; run++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i*10_000+run)))
			res, err := plan.Run(base, schedule(cfg.Program, sc.txns, rng))
			if err != nil {
				return rep, fmt.Errorf("invariant %d run %d: %w", i+1, run, err)
			}
			outcome := res.Ret[1].I
			if sc.cust >= 0 {
				ret, err := plan.RunSerial(res.FinalState(base), []cluster.DirectedTxn{call("balance", ints{"cust": sc.cust})})
				if err != nil {
					return rep, fmt.Errorf("invariant %d run %d: %w", i+1, run, err)
				}
				outcome = ret[0].I
			}
			rep.Runs++
			if !sc.serializable(outcome) {
				rep.Violations[i]++
			}
		}
	}
	return rep, nil
}

// seed builds the scenario's initial state, migrated through the repair's
// correspondences when the program under test is the repaired one.
func seed(cfg Config, plan *cluster.DirectedPlan, sc scenario) (*cluster.MatStore, error) {
	rows := cfg.Rows
	if sc.savings0 != 0 {
		rows = append([]store.TableRow(nil), rows...)
		for i, r := range rows {
			if r.Table == "SAVINGS" && r.Row["sav_cust"].I == 0 {
				rows[i].Row = store.Row{"sav_cust": store.IntV(0), "sav_bal": store.IntV(sc.savings0)}
			}
		}
	}
	if orig := cfg.Original; orig != nil && orig != cfg.Program {
		var err error
		if rows, err = refactor.Migrate(rows, orig, cfg.Program, cfg.Corrs); err != nil {
			return nil, err
		}
	}
	return plan.Seed(rows)
}

// schedule draws one EC execution of the two instances: a random
// interleaving that keeps each instance's program order, and for every
// (earlier command, later command) pair across the instances whether the
// later one sees the earlier one's writes, at probability one half.
func schedule(prog *ast.Program, txns [2]cluster.DirectedTxn, rng *rand.Rand) cluster.DirectedConfig {
	var n, next [2]int
	for inst, t := range txns {
		n[inst] = len(ast.Commands(prog.Txn(t.Name).Body))
	}
	cfg := cluster.DirectedConfig{Txns: txns}
	for next[0] < n[0] || next[1] < n[1] {
		inst := rng.Intn(2)
		if next[inst] == n[inst] {
			inst = 1 - inst
		}
		cfg.Steps = append(cfg.Steps, cluster.DirectedStep{Inst: inst, Cmd: next[inst]})
		next[inst]++
	}
	vis := make([]bool, 2*n[0]*n[1])
	for i := range vis {
		vis[i] = rng.Float64() < 0.5
	}
	cfg.Vis = func(fromInst, fromCmd, toInst, toCmd int) bool {
		if fromInst == 0 {
			return vis[fromCmd*n[1]+toCmd]
		}
		return vis[n[0]*n[1]+toCmd*n[1]+fromCmd]
	}
	return cfg
}
