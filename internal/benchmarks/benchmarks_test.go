package benchmarks

import (
	"math/rand"
	"testing"

	"atropos/internal/store"
)

func TestAllBenchmarksParseAndCheck(t *testing.T) {
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			if _, err := b.Program(); err != nil {
				t.Fatalf("Program: %v", err)
			}
		})
	}
}

func TestTable1Shape(t *testing.T) {
	// Table 1's benchmark inventory: transaction and table counts.
	want := map[string][2]int{ // name -> {txns, tables}
		"TPC-C":      {5, 9},
		"SEATS":      {6, 8},
		"Courseware": {5, 3},
		"SmallBank":  {6, 3},
		"Twitter":    {5, 4},
		"FMKe":       {7, 7},
		"SIBench":    {2, 1},
		"Wikipedia":  {5, 12},
		"Killrchat":  {5, 3},
	}
	for _, b := range All() {
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		w, ok := want[b.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", b.Name)
			continue
		}
		if len(p.Txns) != w[0] {
			t.Errorf("%s: %d txns, want %d", b.Name, len(p.Txns), w[0])
		}
		if len(p.Schemas) != w[1] {
			t.Errorf("%s: %d tables, want %d", b.Name, len(p.Schemas), w[1])
		}
	}
}

func TestMixesReferToRealTxns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range All() {
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(b.Mix) == 0 {
			t.Errorf("%s: empty mix", b.Name)
		}
		for _, m := range b.Mix {
			txn := p.Txn(m.Txn)
			if txn == nil {
				t.Errorf("%s: mix references unknown txn %q", b.Name, m.Txn)
				continue
			}
			// Generated args must exactly match the parameter list.
			a := m.Args(rng, Scale{})
			if len(a) != len(txn.Params) {
				t.Errorf("%s.%s: %d args generated, txn takes %d", b.Name, m.Txn, len(a), len(txn.Params))
			}
			for _, prm := range txn.Params {
				v, ok := a[prm.Name]
				if !ok {
					t.Errorf("%s.%s: missing arg %q", b.Name, m.Txn, prm.Name)
					continue
				}
				if v.T != prm.Type {
					t.Errorf("%s.%s: arg %q has type %v, want %v", b.Name, m.Txn, prm.Name, v.T, prm.Type)
				}
			}
		}
	}
}

func TestRowsLoadable(t *testing.T) {
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			db := store.NewDB(p)
			rows := b.Rows(Scale{Records: 20})
			if len(rows) == 0 {
				t.Fatal("no rows generated")
			}
			for _, r := range rows {
				if _, err := db.Load(r.Table, r.Row); err != nil {
					t.Fatalf("Load %s: %v", r.Table, err)
				}
			}
		})
	}
}

func TestPickTxnCoversMix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, b := range All() {
		seen := map[string]bool{}
		for i := 0; i < 2000; i++ {
			seen[b.PickTxn(rng).Txn] = true
		}
		for _, m := range b.Mix {
			if !seen[m.Txn] {
				t.Errorf("%s: mix entry %s never drawn in 2000 picks (weight %d)", b.Name, m.Txn, m.Weight)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("SmallBank") != SmallBank {
		t.Error("ByName(SmallBank) failed")
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) returned a benchmark")
	}
}

func TestScaleKeyInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Scale{Records: 50, Hot: 5, HotP: 0.9}
	hot := 0
	for i := 0; i < 1000; i++ {
		k := s.Key(rng)
		if k < 0 || k >= 50 {
			t.Fatalf("key %d out of range", k)
		}
		if k < 5 {
			hot++
		}
	}
	if hot < 700 {
		t.Errorf("hot fraction %d/1000, want skewed toward hot range", hot)
	}
}
