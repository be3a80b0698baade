package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"

	"atropos/internal/ast"
)

// AccessPaths reports, for the external tests (which may import the repair
// pipeline; this package's own tests cannot), the access path the compiler
// chose for every select and update of prog: "txn.label" → path name.
func AccessPaths(prog *ast.Program) map[string]string {
	names := map[accessPath]string{pathScan: "scan", pathExact: "exact", pathPrefix: "prefix", pathEq: "eq-index"}
	out := map[string]string{}
	for name, ct := range CompileProgram(prog).txns {
		for _, in := range ct.code {
			if in.cmd != nil && in.cmd.kind != ckInsert {
				out[name+"."+in.cmd.label] = names[in.cmd.path]
			}
		}
	}
	return out
}

// Uncompiled names, with the compiler's error, every transaction of prog
// that CompileProgram leaves to the AST interpreter.
func Uncompiled(prog *ast.Program) []string {
	cp := CompileProgram(prog)
	var out []string
	for _, t := range prog.Txns {
		if cp.txns[t.Name] == nil {
			_, err := (&txnCompiler{cp: cp, txn: t}).compile()
			out = append(out, fmt.Sprintf("%s: %v", t.Name, err))
		}
	}
	return out
}

// OracleDirectedViews installs, until the returned function is called, the
// view construction directed runs used before the overlay: every view a run
// builds is compared — keys, every field, presence, over every table —
// against a clone of the base with the same batches applied. The returned
// function also checks that no run wrote to a base it was given (keys,
// values and timestamps as first seen), and reports how many views and
// bases the oracle saw.
func OracleDirectedViews(fail func(format string, args ...any)) (finish func() (views, bases int)) {
	sums := map[*MatStore]uint64{}
	views := 0
	testHookView = func(r *directedRun, v *trackedView) {
		views++
		if _, seen := sums[r.base]; !seen {
			sums[r.base] = storeSum(r.base)
		}
		ref := r.base.Clone()
		for _, a := range v.applied {
			for _, b := range r.batches {
				if b.ts == a.TS {
					for _, w := range b.writes {
						ref.Apply(w, b.ts)
					}
				}
			}
		}
		for _, s := range r.base.cp.prog.Schemas {
			keys := ref.Keys(s.Name)
			if !slices.Equal(keys, v.Keys(s.Name)) {
				fail("%s: overlay keys %q, clone keys %q", s.Name, v.Keys(s.Name), keys)
				continue
			}
			for _, k := range keys {
				if ref.Alive(s.Name, k) != v.Alive(s.Name, k) {
					fail("%s/%q: overlay alive %t, clone %t", s.Name, k, v.Alive(s.Name, k), ref.Alive(s.Name, k))
				}
				for _, f := range s.Fields {
					if got, want := v.Read(s.Name, k, f.Name), ref.Read(s.Name, k, f.Name); !got.Equal(want) {
						fail("%s/%q.%s: overlay reads %s, clone %s", s.Name, k, f.Name, got, want)
					}
				}
			}
		}
	}
	return func() (int, int) {
		testHookView = nil
		for base, sum := range sums {
			if storeSum(base) != sum {
				fail("a directed run wrote to its base")
			}
		}
		return views, len(sums)
	}
}

// storeSum hashes what a store holds: per held slot its key, and every
// page's values and timestamps. The directory is left out on purpose: the
// oracle's clone interns the keys its batches insert into the directory it
// shares with the base, which is not a write to the base.
func storeSum(ms *MatStore) uint64 {
	h := fnv.New64a()
	for i := range ms.tabs {
		t := &ms.tabs[i]
		fmt.Fprintln(h, t.ct.name, t.n)
		for slot, p := range t.pos {
			if p != 0 {
				fmt.Fprintln(h, slot, p, t.dir.keys[slot])
			}
		}
		for _, pg := range t.pages {
			fmt.Fprintln(h, pg.vals, pg.ts)
		}
	}
	return h.Sum64()
}
