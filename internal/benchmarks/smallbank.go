package benchmarks

import (
	"fmt"
	"math/rand"

	"atropos/internal/store"
)

// SmallBank is the H-Store/OLTP-Bench SmallBank benchmark [18, 43]: three
// tables (accounts, savings, checking) and six transactions over them. The
// increments (deposits) are repairable by logging; the conditional and
// absolute writes (transactSavings' overdraft guard, amalgamate's zeroing)
// are not — matching the paper's partial repair (Table 1: 24 → 8).
var SmallBank = &Benchmark{
	Name: "SmallBank",
	Source: `
table ACCOUNTS {
  acc_id: int key,
  acc_name: string,
}

table SAVINGS {
  sav_cust: int key,
  sav_bal: int,
}

table CHECKING {
  chk_cust: int key,
  chk_bal: int,
}

txn depositChecking(cust: int, amt: int) {
  c := select chk_bal from CHECKING where chk_cust = cust;
  update CHECKING set chk_bal = c.chk_bal + amt where chk_cust = cust;
}

txn transactSavings(cust: int, amt: int) {
  s := select sav_bal from SAVINGS where sav_cust = cust;
  if (s.sav_bal + amt >= 0) {
    s2 := select sav_bal from SAVINGS where sav_cust = cust;
    update SAVINGS set sav_bal = s2.sav_bal + amt where sav_cust = cust;
  }
}

txn balance(cust: int) {
  a := select acc_name from ACCOUNTS where acc_id = cust;
  s := select sav_bal from SAVINGS where sav_cust = cust;
  c := select chk_bal from CHECKING where chk_cust = cust;
  return s.sav_bal + c.chk_bal;
}

txn amalgamate(src: int, dst: int) {
  s := select sav_bal from SAVINGS where sav_cust = src;
  c := select chk_bal from CHECKING where chk_cust = src;
  // Functional zeroing: withdraw exactly what was read.
  update SAVINGS set sav_bal = s.sav_bal - s.sav_bal where sav_cust = src;
  update CHECKING set chk_bal = c.chk_bal - c.chk_bal where chk_cust = src;
  d := select chk_bal from CHECKING where chk_cust = dst;
  update CHECKING set chk_bal = d.chk_bal + (s.sav_bal + c.chk_bal) where chk_cust = dst;
}

txn writeCheck(cust: int, amt: int) {
  s := select sav_bal from SAVINGS where sav_cust = cust;
  c := select chk_bal from CHECKING where chk_cust = cust;
  if (s.sav_bal + c.chk_bal < amt) {
    update CHECKING set chk_bal = c.chk_bal - (amt + 1) where chk_cust = cust;
  }
  if (s.sav_bal + c.chk_bal >= amt) {
    update CHECKING set chk_bal = c.chk_bal - amt where chk_cust = cust;
  }
}

txn sendPayment(src: int, dst: int, amt: int) {
  c := select chk_bal from CHECKING where chk_cust = src;
  if (c.chk_bal >= amt) {
    update CHECKING set chk_bal = c.chk_bal - amt where chk_cust = src;
    d := select chk_bal from CHECKING where chk_cust = dst;
    update CHECKING set chk_bal = d.chk_bal + amt where chk_cust = dst;
  }
}
`,
	Mix: []MixEntry{
		{Txn: "balance", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("cust", s.Key(rng)))
		}},
		{Txn: "depositChecking", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("cust", s.Key(rng)), iarg("amt", int64(1+rng.Intn(100))))
		}},
		{Txn: "transactSavings", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("cust", s.Key(rng)), iarg("amt", int64(rng.Intn(200)-100)))
		}},
		{Txn: "amalgamate", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("src", s.Key(rng)), iarg("dst", s.Key(rng)))
		}},
		{Txn: "writeCheck", Weight: 25, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("cust", s.Key(rng)), iarg("amt", int64(1+rng.Intn(100))))
		}},
		{Txn: "sendPayment", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("src", s.Key(rng)), iarg("dst", s.Key(rng)), iarg("amt", int64(1+rng.Intn(50))))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		for i := 0; i < s.Records; i++ {
			id := iv(int64(i))
			rows = append(rows,
				store.TableRow{Table: "ACCOUNTS", Row: store.Row{"acc_id": id, "acc_name": sv(fmt.Sprintf("cust%d", i))}},
				store.TableRow{Table: "SAVINGS", Row: store.Row{"sav_cust": id, "sav_bal": iv(1000)}},
				store.TableRow{Table: "CHECKING", Row: store.Row{"chk_cust": id, "chk_bal": iv(1000)}},
			)
		}
		return rows
	},
}
