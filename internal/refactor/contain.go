package refactor

import (
	"fmt"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// This file implements the dynamic counterpart of the paper's containment
// relation Σ ⊑_V Σ′ (§4.1) and the data migration that materializes a
// refactored program's initial state from the original program's state.
// The containment checker is the executable oracle behind the refinement
// tests (Theorem 4.2): run both programs under corresponding schedules and
// verify the original final state is recoverable from the refactored one.

// Contains checks that the original store state is contained in the
// refactored state under the correspondences: every alive record of every
// original table is recoverable. Fields with a correspondence are computed
// through θ and α; fields that still exist (same table and field name in
// the refactored program) are compared under the identity correspondence.
// It returns nil when containment holds.
func Contains(orig, ref *store.DB, origProg, refProg *ast.Program, corrs []ValueCorr) error {
	corrFor := func(table, field string) *ValueCorr {
		for i := range corrs {
			if corrs[i].SrcTable == table && corrs[i].SrcField == field {
				return &corrs[i]
			}
		}
		return nil
	}
	for _, s := range origProg.Schemas {
		refSchema := refProg.Schema(s.Name)
		for _, key := range orig.Keys(s.Name) {
			if !orig.Alive(s.Name, key) {
				continue
			}
			row := orig.Row(s.Name, key)
			for _, f := range s.Fields {
				if v := corrFor(s.Name, f.Name); v != nil {
					if err := checkCorr(ref, refProg, *v, row, f.Name); err != nil {
						return fmt.Errorf("refactor: containment: %s[%v].%s: %w", s.Name, key, f.Name, err)
					}
					continue
				}
				if refSchema != nil && refSchema.HasField(f.Name) {
					if err := checkIdentity(ref, refProg, s, row, key, f.Name); err != nil {
						return fmt.Errorf("refactor: containment: %s[%v].%s: %w", s.Name, key, f.Name, err)
					}
					continue
				}
				// A primary-key field of a dropped table is implicitly
				// recovered through any correspondence whose θ̂ maps it.
				if f.PK && pkCovered(corrs, s.Name, f.Name) {
					continue
				}
				return fmt.Errorf("refactor: containment: %s.%s has no correspondence and no identity", s.Name, f.Name)
			}
		}
	}
	return nil
}

// pkCovered reports whether some correspondence's θ̂ maps the primary-key
// field (its value is then recoverable from the matching records).
func pkCovered(corrs []ValueCorr, table, field string) bool {
	for _, v := range corrs {
		if v.SrcTable == table {
			if _, ok := v.Theta[field]; ok {
				return true
			}
		}
	}
	return false
}

// thetaImage collects the destination records θ(r) for an original record
// with the given row valuation.
func thetaImage(ref *store.DB, refProg *ast.Program, v ValueCorr, row store.Row) []store.Key {
	var out []store.Key
	if refProg.Schema(v.DstTable) == nil {
		return nil
	}
	for _, k := range ref.Keys(v.DstTable) {
		if !ref.Alive(v.DstTable, k) {
			continue
		}
		match := true
		for srcPK, dstField := range v.Theta {
			want, ok := row[srcPK]
			if !ok {
				match = false
				break
			}
			got := ref.Read(v.DstTable, k, dstField)
			if !got.Equal(want) {
				match = false
				break
			}
		}
		if match {
			out = append(out, k)
		}
	}
	return out
}

// checkCorr verifies X(r.f) = α({ X′(r′.f′) | r′ ∈ θ(r) }) for one record
// and correspondence.
func checkCorr(ref *store.DB, refProg *ast.Program, v ValueCorr, row store.Row, field string) error {
	image := thetaImage(ref, refProg, v, row)
	want := row[field]
	if len(image) == 0 {
		// Total-table reading (§3: a table conceptually contains a record
		// for every primary key): an empty materialized image denotes
		// records holding zero values, so the original value is
		// recoverable iff it is the zero value.
		if want.Equal(store.Zero(want.T)) {
			return nil
		}
		return fmt.Errorf("θ(r) has no materialized records but the value is %s", want)
	}
	switch v.Agg {
	case ast.AggAny:
		// any is a nondeterministic choice: the original value must be one
		// of the values carried by the corresponding records.
		for _, k := range image {
			got := ref.Read(v.DstTable, k, v.DstField)
			if got.Equal(want) {
				return nil
			}
		}
		return fmt.Errorf("value %s not among the %d corresponding records", want, len(image))
	case ast.AggSum:
		var total int64
		for _, k := range image {
			got := ref.Read(v.DstTable, k, v.DstField)
			total += got.I
		}
		if want.T != ast.TInt || total != want.I {
			return fmt.Errorf("sum over θ(r) = %d, original value %s", total, want)
		}
		return nil
	default:
		return fmt.Errorf("unsupported aggregator %v", v.Agg)
	}
}

// checkIdentity compares a field that survived the refactoring unchanged.
func checkIdentity(ref *store.DB, refProg *ast.Program, s *ast.Schema, row store.Row, key store.Key, field string) error {
	if !ref.Alive(s.Name, key) {
		return fmt.Errorf("record missing in refactored table")
	}
	got := ref.Read(s.Name, key, field)
	if !got.Equal(row[field]) {
		return fmt.Errorf("identity mismatch: original %s, refactored %s", row[field], got)
	}
	return nil
}

// Migrate builds the refactored program's initial store state from the
// original program's state: surviving tables copy their records, moved
// fields are materialized on the θ-matching destination records, and
// logger correspondences seed one log row per source record carrying its
// current value. This is the schema-migration step a deployment of the
// refactored program would run.
func Migrate(orig *store.DB, origProg, refProg *ast.Program, corrs []ValueCorr) (*store.DB, error) {
	// Migration-created log identifiers live in a range disjoint from
	// runtime uuid() values (call- or run-scoped negatives well above -1e15),
	// so later inserts can never collide with migrated rows.
	migSeq := int64(0)
	migID := func() store.Value {
		migSeq++
		return store.IntV(-1_000_000_000_000_000 - migSeq)
	}

	// Materialize surviving tables.
	rows := map[string]map[store.Key]store.Row{}
	for _, s := range refProg.Schemas {
		rows[s.Name] = map[store.Key]store.Row{}
		if origProg.Schema(s.Name) == nil {
			continue // introduced table: filled by correspondences below
		}
		for _, k := range orig.Keys(s.Name) {
			if !orig.Alive(s.Name, k) {
				continue
			}
			origRow := orig.Row(s.Name, k)
			nr := store.Row{}
			for _, f := range s.Fields {
				if v, ok := origRow[f.Name]; ok {
					nr[f.Name] = v
				} else {
					nr[f.Name] = store.Zero(f.Type)
				}
			}
			rows[s.Name][k] = nr
		}
	}

	// Apply correspondences in order.
	for _, v := range corrs {
		srcSchema := origProg.Schema(v.SrcTable)
		if srcSchema == nil {
			return nil, fmt.Errorf("refactor: migrate: unknown source table %q", v.SrcTable)
		}
		dstSchema := refProg.Schema(v.DstTable)
		if dstSchema == nil {
			return nil, fmt.Errorf("refactor: migrate: destination table %q absent from refactored program", v.DstTable)
		}
		for _, sk := range orig.Keys(v.SrcTable) {
			if !orig.Alive(v.SrcTable, sk) {
				continue
			}
			srcRow := orig.Row(v.SrcTable, sk)
			if v.Logging {
				// Seed the log with the current value.
				nr := store.Row{}
				var pkVals []store.Value
				for _, pk := range dstSchema.PrimaryKey() {
					if pk.Name == ast.LogIDField {
						val := migID()
						nr[ast.LogIDField] = val
						pkVals = append(pkVals, val)
						continue
					}
					// Log tables name their key fields after the source's.
					srcField := pk.Name
					for sf, df := range v.Theta {
						if df == pk.Name {
							srcField = sf
						}
					}
					val := srcRow[srcField]
					nr[pk.Name] = val
					pkVals = append(pkVals, val)
				}
				nr[v.DstField] = srcRow[v.SrcField]
				rows[v.DstTable][store.MakeKey(pkVals...)] = fillZeros(nr, dstSchema)
				continue
			}
			// Redirect: set the destination field on every θ-matching row.
			for dk, dr := range rows[v.DstTable] {
				match := true
				for srcPK, dstField := range v.Theta {
					if !dr[dstField].Equal(srcRow[srcPK]) {
						match = false
						break
					}
				}
				if match {
					dr[v.DstField] = srcRow[v.SrcField]
					rows[v.DstTable][dk] = dr
				}
			}
		}
	}

	// Load into a fresh store.
	db := store.NewDB(refProg)
	for table, recs := range rows {
		for _, r := range recs {
			if _, err := db.Load(table, r); err != nil {
				return nil, fmt.Errorf("refactor: migrate: %s: %w", table, err)
			}
		}
	}
	return db, nil
}

func fillZeros(r store.Row, s *ast.Schema) store.Row {
	for _, f := range s.Fields {
		if _, ok := r[f.Name]; !ok {
			r[f.Name] = store.Zero(f.Type)
		}
	}
	return r
}
