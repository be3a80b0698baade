package benchmarks

import (
	"math/rand"

	"atropos/internal/store"
)

// SIBench is the snapshot-isolation microbenchmark [18]: one table, a
// scanning reader and an incrementing writer. The single lost-update
// anomaly is fully repairable by logging (Table 1: 1 → 0, 1 table → 2).
var SIBench = &Benchmark{
	Name: "SIBench",
	Source: `
table SITEST {
  si_id: int key,
  si_value: int,
}

txn readAll(lo: int) {
  x := select si_value from SITEST where si_id >= lo;
  return sum(x.si_value);
}

txn increment(k: int) {
  x := select si_value from SITEST where si_id = k;
  update SITEST set si_value = x.si_value + 1 where si_id = k;
}
`,
	Mix: []MixEntry{
		{Txn: "readAll", Weight: 50, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("lo", int64(0)))
		}},
		{Txn: "increment", Weight: 50, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("k", s.Key(rng)))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		for i := 0; i < s.Records; i++ {
			rows = append(rows, store.TableRow{Table: "SITEST", Row: store.Row{"si_id": iv(int64(i)), "si_value": iv(0)}})
		}
		return rows
	},
}
