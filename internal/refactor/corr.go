// Package refactor implements the paper's schema-refactoring engine (§4):
// value correspondences, the three refactoring rule templates (intro ρ,
// intro ρ.f, intro v with the redirect and logger instantiations of Fig.
// 17), command merging and splitting, dead-code elimination, the database
// containment relation Σ ⊑_V Σ′ (§4.1), and the data migration that
// materializes a correspondence's image on concrete store states.
//
// Every rule is one function that checks, then path-copies (DESIGN.md
// §10): its result rebuilds only the spine from the edited node up to the
// Program header and shares every other transaction, schema, statement and
// expression with its input, which it never mutates. Sound because shared
// AST nodes are immutable (ast package contract).
package refactor

import (
	"fmt"
	"strings"

	"atropos/internal/ast"
)

// ValueCorr is a value correspondence (R, R′, f, f′, θ, α) (§4.1): field
// SrcField of schema SrcTable is computed from field DstField of schema
// DstTable by aggregating, with Agg, the values of the records related by
// the record correspondence θ.
type ValueCorr struct {
	SrcTable string
	SrcField string
	DstTable string
	DstField string
	// Theta is the lifted record correspondence θ̂: it maps each primary-key
	// field of SrcTable to the DstTable field that carries its value, so
	// θ(r) = { r′ | ∀f. r′.Theta[f] = r.f } (§4.2.1).
	Theta map[string]string
	// Agg is the fold α: AggAny for the redirect rule, AggSum for the
	// logger rule.
	Agg ast.AggFn
	// Logging marks logger-rule correspondences: DstTable is a logging
	// schema whose primary key extends SrcTable's with log_id, and updates
	// to SrcField become inserts (§4.2.2).
	Logging bool
}

func (v ValueCorr) String() string {
	return fmt.Sprintf("(%s, %s, %s, %s, θ̂%v, %s)",
		v.SrcTable, v.DstTable, v.SrcField, v.DstField, v.Theta, v.Agg)
}

// fieldPrefix guesses the destination table's field-name prefix (e.g. "st_"
// for STUDENT{st_id, st_name, ...}) so introduced fields follow the table's
// naming convention, like the paper's st_em_addr and st_co_avail.
func fieldPrefix(s *ast.Schema) string {
	if len(s.Fields) == 0 {
		return strings.ToLower(s.Name) + "_"
	}
	prefix := s.Fields[0].Name
	for _, f := range s.Fields[1:] {
		for !strings.HasPrefix(f.Name, prefix) && prefix != "" {
			prefix = prefix[:len(prefix)-1]
		}
	}
	if prefix == "" || !strings.Contains(prefix, "_") {
		return strings.ToLower(s.Name) + "_"
	}
	// Cut after the last underscore of the common prefix.
	return prefix[:strings.LastIndex(prefix, "_")+1]
}

// DstFieldName derives the introduced field's name on the destination
// schema: the destination's prefix plus the source field name
// (COURSE.co_avail moved into STUDENT becomes st_co_avail).
func DstFieldName(dst *ast.Schema, srcField string) string {
	name := fieldPrefix(dst) + srcField
	for i := 2; dst.HasField(name); i++ {
		name = fmt.Sprintf("%s%s_%d", fieldPrefix(dst), srcField, i)
	}
	return name
}

// LogTableName derives the logging schema's name (COURSE.co_st_cnt becomes
// COURSE_CO_ST_CNT_LOG, as in §2).
func LogTableName(prog *ast.Program, srcTable, srcField string) string {
	name := fmt.Sprintf("%s_%s_LOG", srcTable, strings.ToUpper(srcField))
	for i := 2; prog.Schema(name) != nil; i++ {
		name = fmt.Sprintf("%s_%s_LOG_%d", srcTable, strings.ToUpper(srcField), i)
	}
	return name
}

// LogFieldName derives the logging schema's value field (co_st_cnt becomes
// co_st_cnt_log).
func LogFieldName(srcField string) string { return srcField + "_log" }
