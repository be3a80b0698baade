package cluster

import "atropos/internal/ast"

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
