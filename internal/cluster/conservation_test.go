package cluster

import (
	"math/rand"
	"testing"
	"time"

	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/sema"
	"atropos/internal/store"
)

// The transfer program moves money between accounts with a read-modify-
// write pattern: serializable executions conserve the total balance
// exactly; eventually consistent ones lose updates under contention.
const transferSrc = `
table ACC { id: int key, bal: int, }

txn transfer(src: int, dst: int, amt: int) {
  s := select bal from ACC where id = src;
  d := select bal from ACC where id = dst;
  update ACC set bal = s.bal - amt where id = src;
  update ACC set bal = d.bal + amt where id = dst;
}
`

func transferConfig(t *testing.T, mode Mode, seed int64) Config {
	t.Helper()
	prog, err := parser.Parse(transferSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sema.Check(prog); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var rows []store.TableRow
	for i := 0; i < n; i++ {
		rows = append(rows, store.TableRow{Table: "ACC", Row: store.Row{
			"id": store.IntV(int64(i)), "bal": store.IntV(1000),
		}})
	}
	mix := []benchmarks.MixEntry{{
		Txn: "transfer", Weight: 1,
		Args: func(rng *rand.Rand, s benchmarks.Scale) benchmarks.Args {
			src := rng.Intn(n)
			// Distinct accounts: a self-transfer is money-creating even
			// serially (the credit overwrites the debit), so it would not
			// witness a locking bug.
			dst := (src + 1 + rng.Intn(n-1)) % n
			return benchmarks.Bind(
				benchmarks.Arg{Name: "src", Val: store.IntV(int64(src))},
				benchmarks.Arg{Name: "dst", Val: store.IntV(int64(dst))},
				benchmarks.Arg{Name: "amt", Val: store.IntV(int64(1 + rng.Intn(5)))},
			)
		},
	}}
	return Config{
		Program:  prog,
		Mix:      mix,
		Scale:    benchmarks.Scale{Records: n},
		Rows:     rows,
		Topology: VACluster,
		Clients:  12,
		Duration: 3 * time.Second,
		Warmup:   200 * time.Millisecond,
		Seed:     seed,
		Mode:     mode,
	}
}

// TestSCLivenessUnderContention validates the locking machinery stays
// live on an adversarial workload (every transaction locks two of eight
// records in random order): commits keep happening and deadlock aborts,
// while frequent by construction, never livelock the loop.
func TestSCLivenessUnderContention(t *testing.T) {
	cfg := transferConfig(t, ModeSC, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transfers committed")
	}
	if res.Aborted > res.Committed*100 {
		t.Errorf("livelock: %d aborts for %d commits", res.Aborted, res.Committed)
	}
	t.Logf("committed %d, aborted %d (adversarial 2-record transfers)", res.Committed, res.Aborted)
}

// TestFinalStateConservation runs the same transfer workload through both
// modes and checks conservation of the total balance by inspecting the
// replicas' final states via a custom driver round: EC must exhibit at
// least one violation across seeds (lost updates), SC never. Both
// executors — the compiled default and the AST oracle — are held to the
// same behavior, and to identical totals seed by seed.
func TestFinalStateConservation(t *testing.T) {
	type runKey struct {
		mode   Mode
		seed   int64
		interp bool
	}
	memo := map[runKey]int64{} // each FinalState call is a full simulation
	sumAfter := func(mode Mode, seed int64, interp bool) int64 {
		k := runKey{mode, seed, interp}
		if total, ok := memo[k]; ok {
			return total
		}
		cfg := transferConfig(t, mode, seed)
		cfg.useInterpreter = interp
		st, err := FinalState(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, kk := range st.Keys("ACC") {
			total += st.Read("ACC", kk, "bal").I
		}
		memo[k] = total
		return total
	}
	const want = 8 * 1000
	for _, interp := range []bool{false, true} {
		name := "compiled"
		if interp {
			name = "interpreter"
		}
		for seed := int64(0); seed < 3; seed++ {
			if got := sumAfter(ModeSC, seed, interp); got != want {
				t.Errorf("%s SC seed %d: total = %d, want %d (locking broken)", name, seed, got, want)
			}
		}
		ecViolated := false
		for seed := int64(0); seed < 5 && !ecViolated; seed++ {
			if sumAfter(ModeEC, seed, interp) != want {
				ecViolated = true
			}
		}
		if !ecViolated {
			t.Errorf("%s EC conserved money across 5 seeds; lost updates should occur under contention", name)
		}
	}
	// The engines must agree on the exact (violated or not) final totals.
	for _, mode := range []Mode{ModeEC, ModeSC} {
		for seed := int64(0); seed < 5; seed++ {
			if c, i := sumAfter(mode, seed, false), sumAfter(mode, seed, true); c != i {
				t.Errorf("%v seed %d: compiled total %d != interpreter total %d", mode, seed, c, i)
			}
		}
	}
}
