// Package benchmarks contains the paper's nine evaluation benchmarks
// (Table 1) translated into the DSL: TPC-C, SEATS, Courseware, SmallBank,
// Twitter, FMKe, SIBench, Wikipedia, and Killrchat. Each benchmark bundles
// its program source, a transaction mix with argument generators (used by
// the workload driver), and an initial-population generator.
//
// The translations preserve each benchmark's table count, transaction
// count, and conflict structure (which read-modify-writes are increments,
// which writes are conditional or absolute, which reads chase foreign
// keys); absolute anomaly counts therefore land near — not exactly on —
// the paper's, since the authors' DSL translations are not public. The
// measured counts are recorded in EXPERIMENTS.md.
package benchmarks

import (
	"fmt"
	"math/rand"
	"sync"

	"atropos/internal/ast"
	"atropos/internal/sema"
	"atropos/internal/store"
)

// Scale sizes a benchmark's population and key domains.
type Scale struct {
	// Records is the base table cardinality.
	Records int
	// Hot is the size of the hot-key range; a fraction HotP of accesses
	// draw keys from it to create contention.
	Hot int
	// HotP is the probability of drawing from the hot range.
	HotP float64
}

// DefaultScale is used when a Scale is zero-valued.
var DefaultScale = Scale{Records: 100, Hot: 10, HotP: 0.5}

func (s Scale) orDefault() Scale {
	if s.Records == 0 {
		return DefaultScale
	}
	if s.Hot == 0 {
		s.Hot = s.Records / 10
		if s.Hot == 0 {
			s.Hot = 1
		}
	}
	if s.HotP == 0 {
		s.HotP = 0.5
	}
	return s
}

// Key draws a record key with hot-spot contention.
func (s Scale) Key(rng *rand.Rand) int64 {
	s = s.orDefault()
	if rng.Float64() < s.HotP {
		return int64(rng.Intn(s.Hot))
	}
	return int64(rng.Intn(s.Records))
}

// MixEntry is one transaction of a benchmark's workload mix.
type MixEntry struct {
	Txn    string
	Weight int
	// Args generates an argument binding for one invocation.
	Args func(rng *rand.Rand, s Scale) map[string]store.Value
}

// TableRow is one initial record.
type TableRow struct {
	Table string
	Row   store.Row
}

// RowsOf returns a row set's alive records as loadable rows, in schema and
// key order.
func RowsOf(db *store.DB, prog *ast.Program) []TableRow {
	var out []TableRow
	for _, s := range prog.Schemas {
		for _, k := range db.Keys(s.Name) {
			if db.Alive(s.Name, k) {
				out = append(out, TableRow{Table: s.Name, Row: db.Row(s.Name, k)})
			}
		}
	}
	return out
}

// Benchmark is one evaluation program plus its workload description.
type Benchmark struct {
	Name   string
	Source string
	Mix    []MixEntry
	// Rows generates the initial population at the given scale.
	Rows func(s Scale) []TableRow

	once sync.Once
	prog *ast.Program
	perr error
}

// Program parses and checks the benchmark's source (cached).
func (b *Benchmark) Program() (*ast.Program, error) {
	b.once.Do(func() {
		p, err := sema.Load(b.Source)
		if err != nil {
			b.perr = fmt.Errorf("benchmarks: %s: %w", b.Name, err)
			return
		}
		b.prog = p
	})
	return b.prog, b.perr
}

// MustProgram is Program but panics on error (benchmarks are static).
func (b *Benchmark) MustProgram() *ast.Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

// PickTxn draws a transaction from the mix by weight.
func (b *Benchmark) PickTxn(rng *rand.Rand) MixEntry {
	total := 0
	for _, m := range b.Mix {
		total += m.Weight
	}
	n := rng.Intn(total)
	for _, m := range b.Mix {
		n -= m.Weight
		if n < 0 {
			return m
		}
	}
	return b.Mix[len(b.Mix)-1]
}

// All returns every benchmark in Table 1 order.
func All() []*Benchmark {
	return []*Benchmark{
		TPCC, SEATS, Courseware, SmallBank, Twitter, FMKe, SIBench, Wikipedia, Killrchat,
	}
}

// ByName looks a benchmark up case-sensitively; nil if unknown.
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// iv, bv, sv are population helpers.
func iv(n int64) store.Value  { return store.IntV(n) }
func bv(b bool) store.Value   { return store.BoolV(b) }
func sv(s string) store.Value { return store.StringV(s) }

// args builds an argument map tersely.
func args(kv ...any) map[string]store.Value {
	m := map[string]store.Value{}
	for i := 0; i+1 < len(kv); i += 2 {
		name := kv[i].(string)
		switch v := kv[i+1].(type) {
		case int64:
			m[name] = store.IntV(v)
		case int:
			m[name] = store.IntV(int64(v))
		case bool:
			m[name] = store.BoolV(v)
		case string:
			m[name] = store.StringV(v)
		case store.Value:
			m[name] = v
		default:
			panic(fmt.Sprintf("benchmarks: bad arg %v", v))
		}
	}
	return m
}
