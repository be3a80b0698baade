package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// compareRuns prints every end-to-end metric of every workload for two
// sides (a is the base: the parent commit, or the first of two repeats):
// both medians, the ratio with its base, the bound and a verdict. A metric
// is worse when b's median is worse than a's by more than the bound. When
// either side's own runs spread wider than the bound the verdict is
// unresolved, unless every run of b is better (ok) or every run is worse by
// more than the bound (worse). Per-layer metrics marked exact must be
// identical. It returns how many verdicts were "worse" or "differs".
func compareRuns(w io.Writer, a, b []pass) int {
	bad := 0
	fmt.Fprintf(w, "\ncomparison: b against base a (%d and %d runs)\n", len(a), len(b))
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %18s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	for _, wr := range a[0].Workloads {
		for _, m := range endToEnd {
			av, bv := metricValues(a, wr.Name, m.Name, false), metricValues(b, wr.Name, m.Name, false)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing on one side\n", wr.Name, m.Name)
				bad++
				continue
			}
			ma, mb := median(slices.Clone(av)), median(slices.Clone(bv))
			verdict := verdictOf(m, av, bv, ma, mb)
			if verdict == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %9.4f of %-8.4g %5.0f%%  %s\n",
				wr.Name, m.Name, ma, mb, mb/ma, ma, 100*m.Bound, verdict)
		}
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			av, bv := metricValues(a[:1], wr.Name, m.Name, true), metricValues(b[:1], wr.Name, m.Name, true)
			if len(av) == 1 && len(bv) == 1 && av[0] != bv[0] {
				fmt.Fprintf(w, "%-14s %-28s %v against %v: differs (exact count)\n", wr.Name, m.Name, av[0], bv[0])
				bad++
			}
		}
	}
	return bad
}

// metricValues collects one metric of one workload over a side's runs.
func metricValues(side []pass, workload, metric string, layer bool) []float64 {
	var xs []float64
	for _, p := range side {
		for _, wr := range p.Workloads {
			r := wr.EndToEnd
			if layer {
				r = wr.PerLayer
			}
			if wr.Name != workload || r == nil {
				continue
			}
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

// verdictOf judges side b (median mb) against the base a (median ma).
func verdictOf(m metricDef, a, b []float64, ma, mb float64) string {
	worseBy := func(x, base float64) float64 { // share of base by which x is worse
		if m.Better == "higher" {
			return (base - x) / base
		}
		return (x - base) / base
	}
	spread := func(xs []float64, med float64) float64 { return (slices.Max(xs) - slices.Min(xs)) / med }
	if max(spread(a, ma), spread(b, mb)) > m.Bound {
		allBetter, allWorse := true, true
		for _, x := range b {
			for _, base := range a {
				allBetter = allBetter && worseBy(x, base) < 0
				allWorse = allWorse && worseBy(x, base) > m.Bound
			}
		}
		switch {
		case allBetter:
			return "ok"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	if worseBy(mb, ma) > m.Bound {
		return "worse"
	}
	return "ok"
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
