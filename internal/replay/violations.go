package replay

import (
	"sort"

	"atropos/internal/cluster"
)

// Violation counting over run observations, of two instances (the negative
// controls' replays) or of many (full runs). The dependency edges are
// derived exactly as for two-instance witness replays (deriveEdges); an
// instance counts as a violation when some dependency cycle enters it at
// one command and leaves at a different one — the anomaly shape the
// static detector's query asserts, lifted from a fixed pair to arbitrary
// executions. Strongly connected components make that check exact: an
// instance X qualifies iff, within X's SCC of the instance-level
// dependency graph, X has an incoming edge at command b and an outgoing
// edge at command a with a ≠ b — strong connectivity composes the
// out-edge's target back around to the in-edge's source, and conversely
// any qualifying cycle lies inside one SCC.

// Violations returns the instance ids that sit on an anomalous dependency
// cycle, in ascending order. The result is deterministic for a given
// observation set (set-valued, so map iteration order cannot leak in).
func Violations(obs []cluster.DirectedObs) []int {
	edges := deriveEdges(obs)
	if len(edges) == 0 {
		return nil
	}
	// Instance-level adjacency (dedup), remembering per directed edge the
	// commands it leaves and enters at.
	adj := map[int]map[int]bool{}
	node := func(i int) map[int]bool {
		n, ok := adj[i]
		if !ok {
			n = map[int]bool{}
			adj[i] = n
		}
		return n
	}
	for e := range edges {
		if e.From.Inst == e.To.Inst {
			continue
		}
		node(e.From.Inst)[e.To.Inst] = true
		node(e.To.Inst) // ensure the target exists as a node
	}
	comp := sccs(adj)
	size := map[int]int{}
	for _, c := range comp {
		size[c]++
	}
	// One pass over the edges: collect, per instance, the commands at which
	// SCC-internal edges leave and enter it.
	outCmds := map[int]map[int]bool{}
	inCmds := map[int]map[int]bool{}
	mark := func(m map[int]map[int]bool, inst, cmd int) {
		s, ok := m[inst]
		if !ok {
			s = map[int]bool{}
			m[inst] = s
		}
		s[cmd] = true
	}
	for e := range edges {
		if e.From.Inst == e.To.Inst || comp[e.From.Inst] != comp[e.To.Inst] {
			continue
		}
		mark(outCmds, e.From.Inst, e.From.Cmd)
		mark(inCmds, e.To.Inst, e.To.Cmd)
	}
	var out []int
	for inst := range adj {
		if size[comp[inst]] >= 2 && qualifies(outCmds[inst], inCmds[inst]) {
			out = append(out, inst)
		}
	}
	sort.Ints(out)
	return out
}

// qualifies reports whether some out-command differs from some in-command.
func qualifies(outCmds, inCmds map[int]bool) bool {
	for a := range outCmds {
		for b := range inCmds {
			if a != b {
				return true
			}
		}
	}
	return false
}

// sccs computes strongly connected components (iterative Tarjan) over the
// instance graph, returning a component id per instance. Nodes are
// visited in ascending id order so component ids are deterministic —
// though callers only compare them for equality.
func sccs(adj map[int]map[int]bool) map[int]int {
	nodes := make([]int, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	succ := make(map[int][]int, len(adj))
	for n, set := range adj {
		ss := make([]int, 0, len(set))
		for s := range set {
			ss = append(ss, s)
		}
		sort.Ints(ss)
		succ[n] = ss
	}

	index := map[int]int{}
	low := map[int]int{}
	onStack := map[int]bool{}
	comp := map[int]int{}
	var stack []int
	next, ncomp := 0, 0

	type frame struct {
		v  int
		si int // next successor index
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.si < len(succ[f.v]) {
				w := succ[f.v][f.si]
				f.si++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			if low[f.v] == index[f.v] {
				for {
					n := len(stack) - 1
					w := stack[n]
					stack = stack[:n]
					onStack[w] = false
					comp[w] = ncomp
					if w == f.v {
						break
					}
				}
				ncomp++
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return comp
}
