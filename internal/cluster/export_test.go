package cluster

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// AccessPaths reports, for the external tests (which may import the repair
// pipeline; this package's own tests cannot), the access path the compiler
// chose for every select and update of prog: "txn.label" → path name.
func AccessPaths(prog *ast.Program) map[string]string {
	names := map[accessPath]string{pathScan: "scan", pathExact: "exact", pathPrefix: "prefix", pathEq: "eq-index"}
	out := map[string]string{}
	cp, err := CompileProgram(prog)
	if err != nil {
		panic(err)
	}
	for name, ct := range cp.txns {
		for _, in := range ct.code {
			if in.cmd != nil && in.cmd.kind != ckInsert {
				out[name+"."+in.cmd.label] = names[in.cmd.path]
			}
		}
	}
	return out
}

// Uncompiled names, with the compiler's error, every transaction of prog the
// compiler refuses — each of which would fail a run that needs it.
func Uncompiled(prog *ast.Program) []string {
	cp := compileLayout(prog)
	var out []string
	for _, t := range prog.Txns {
		if _, err := (&txnCompiler{cp: cp, txn: t}).compile(); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", t.Name, err))
		}
	}
	return out
}

// OracleDirectedViews installs, until the returned function is called, two
// references beside every directed run. The view each executed command ran
// on — base slots held ∪ overlay slots, every field through scanRef.field —
// is compared, keys, fields and presence over every table, against a clone
// of the base with the same batches applied. And one AST reference executor
// per instance is stepped on that clone in the run's order: after each
// command it must have executed the same static command, produced the same
// write list and read the same set of fields, and at the end of the run be
// as done with the same return value. The returned function also checks that
// no run wrote to a base it was given (keys, values and timestamps as first
// seen), and reports how many views and bases the oracle saw.
func OracleDirectedViews(fail func(format string, args ...any)) (finish func() (views, bases int)) {
	sums := map[*MatStore]uint64{}
	views := 0
	var (
		cur  *directedRun
		refs [2]*TxnExec
		uuid UUIDGen
	)
	testHookDirected = func(r *directedRun, ob *DirectedObs) {
		base := r.v.ms
		prog := base.cp.prog
		if r != cur {
			cur, uuid = r, UUIDGen{}
			for inst, fr := range r.fr {
				refs[inst] = NewTxnExec(prog, fr.ct.src, r.cfg.Txns[inst].Args)
			}
		}
		if ob == nil {
			for inst, fr := range r.fr {
				e := refs[inst]
				if cmd, err := e.Advance(base); cmd != nil || err != nil {
					fail("%s: the run ended, the reference goes on with %v (error %v)", fr.ct.name, cmd, err)
				}
				if e.Done() != fr.done || !e.Result().Equal(fr.ret) {
					fail("%s: ended done=%t ret=%s, reference done=%t ret=%s", fr.ct.name, fr.done, fr.ret, e.Done(), e.Result())
				}
			}
			return
		}
		views++
		if _, seen := sums[base]; !seen {
			sums[base] = storeSum(base)
		}
		ref := base.Clone()
		for _, a := range ob.View {
			for _, b := range r.batches {
				if b.ts == a.TS {
					ref.applyC(r.cw[b.lo:b.hi], b.ts)
				}
			}
		}
		for tid := range base.tabs {
			t, ot := &base.tabs[tid], &r.v.ov.tabs[tid]
			name := t.ct.name
			var keys []store.Key
			for slot := range int32(len(t.dir.end)) {
				if _, over := ot.idx[slot]; over || t.held(slot) {
					keys = append(keys, t.dir.name(slot))
				}
			}
			slices.Sort(keys)
			if !slices.Equal(keys, ref.Keys(name)) {
				fail("%s: overlay keys %q, clone keys %q", name, keys, ref.Keys(name))
				continue
			}
			for _, k := range keys {
				slot, _ := t.dir.lookup([]byte(k))
				sr := scanRef{t: t, ovBase: -1}
				if t.held(slot) {
					sr.pg, sr.r = t.at(slot)
				}
				if row, over := ot.idx[slot]; over {
					sr.ot, sr.ovBase = ot, row*t.ct.nf
				}
				for fid, f := range t.ct.fields {
					if got, want := sr.field(int32(fid)), ref.Read(name, k, f); !got.Equal(want) {
						fail("%s/%q.%s: overlay reads %s, clone %s", name, k, f, got, want)
					}
				}
			}
		}

		fr, e := r.fr[ob.Inst], refs[ob.Inst]
		meta := metaFor(prog, fr.ct.src)
		cmd, err := e.Advance(ref)
		if err != nil || cmd == nil {
			fail("%s command %d: the reference stops with %v (error %v)", fr.ct.name, ob.Cmd, cmd, err)
			return
		}
		cidx := meta.cmdIdx[cmd]
		if cidx != ob.Cmd {
			fail("%s: executed command %d, the reference command %d", fr.ct.name, ob.Cmd, cidx)
		}
		rec := &obsView{inner: ref, table: meta.tables[cidx], fields: meta.readSet[cidx]}
		writes, err := e.Exec(rec, &uuid)
		if err != nil {
			fail("%s command %d: reference: %v", fr.ct.name, cidx, err)
		}
		if !slices.Equal(writes, ob.Writes) {
			fail("%s command %d: wrote %v, the reference %v", fr.ct.name, cidx, ob.Writes, writes)
		}
		if got, want := readSet(ob.Reads), readSet(rec.reads); !slices.Equal(got, want) {
			fail("%s command %d: read %v, the reference %v", fr.ct.name, cidx, got, want)
		}
	}
	return func() (int, int) {
		testHookDirected = nil
		for base, sum := range sums {
			if storeSum(base) != sum {
				fail("a directed run wrote to its base")
			}
		}
		return views, len(sums)
	}
}

// readSet is the set of reads in obs, sorted: dependency edges are derived
// from the set, so order and repetition are each executor's own.
func readSet(obs []ReadObs) []ReadObs {
	out := slices.Clone(obs)
	slices.SortFunc(out, func(a, b ReadObs) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Key, b.Key), cmp.Compare(a.Field, b.Field))
	})
	return slices.Compact(out)
}

// storeSum hashes what a store holds: per held slot its key, and every
// page's words, timestamps and strings. The directory is left out on purpose: the
// oracle's clone interns the keys its batches insert into the directory it
// shares with the base, which is not a write to the base.
func storeSum(ms *MatStore) uint64 {
	h := fnv.New64a()
	for i := range ms.tabs {
		t := &ms.tabs[i]
		fmt.Fprintln(h, t.ct.name, t.n)
		for slot, p := range t.pos {
			if p != 0 {
				fmt.Fprintln(h, slot, p, t.dir.name(int32(slot)))
			}
		}
		for _, pg := range t.pages {
			fmt.Fprintln(h, pg.w, pg.ts, pg.s)
		}
	}
	return h.Sum64()
}
