package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"atropos"
)

// Span names: the public functions the ops call into. A workload opens them
// under the op's root span, whose name is the op's cell.
const (
	spanParse     = "parser.Parse"
	spanCheck     = "sema.Check"
	spanDetect    = "anomaly.DetectSession.DetectContext"
	spanRepair    = "repair.Run"
	spanFormat    = "ast.Format"
	spanRoundTrip = "service.roundtrip"
	spanSim       = "cluster.Run"
)

// layerMetrics merges the three sources of per-layer numbers. Probes give
// every timing a value on every workload; where the traced ops themselves
// called the layer, the median of those spans replaces the probe's number.
// counts are the first traced round's work, read at the layer boundaries.
func layerMetrics(spans []span, counts, probes map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}
	for k, v := range counts {
		m[k] = v
	}

	durs := map[string][]float64{} // child spans by name, root spans by cell
	opNs, repairNs := 0.0, 0.0
	for _, s := range spans {
		d := float64(s.EndNs - s.StartNs)
		durs[s.Name] = append(durs[s.Name], d)
		switch {
		case s.Parent == 0:
			opNs += d
		case s.Name == spanRepair:
			repairNs += d
		}
	}
	fromSpans := func(metric, name string, unitNs float64) {
		if xs := durs[name]; len(xs) > 0 {
			m[metric] = median(xs) / unitNs
		}
	}
	fromSpans("parser.parse_us", spanParse, 1e3)
	fromSpans("sema.check_us", spanCheck, 1e3)
	fromSpans("ast.format_us", spanFormat, 1e3)
	fromSpans("repair.run_ms", spanRepair, 1e6)
	fromSpans("cluster.run_ms", spanSim, 1e6)
	m["repair.share_of_op"] = ratio(repairNs, opNs)

	if sims := durs[spanSim]; len(sims) > 0 {
		total := 0.0
		for _, d := range sims {
			total += d
		}
		m["cluster.commits_per_wall_s"] = float64(len(sims)) * simOps / (total / 1e9)
	}
	if rts := durs[spanRoundTrip]; len(rts) > 0 {
		m["service.req_p99_ms"] = quantile(rts, 0.99) / 1e6
		for _, ep := range []string{"parse", "analyze", "repair", "certify"} {
			var xs []float64
			for cell, ds := range durs {
				if strings.HasPrefix(cell, ep+"/") {
					xs = append(xs, ds...)
				}
			}
			m["service."+ep+"_p50_ms"] = median(xs) / 1e6
		}
	}

	// The share of the queries a fresh oracle would solve that the session's
	// caches saved the solver (SessionStats.CacheHitRate).
	m["anomaly.query_hit_share"] = ratio(counts["anomaly.queries"]-counts["anomaly.solved"]-counts["anomaly.replayed"], counts["anomaly.queries"])
	m["anomaly.txn_hit_share"] = ratio(counts["anomaly.txn_hits"], counts["anomaly.txn_hits"]+counts["anomaly.txn_misses"])
	m["repair.repaired_share"] = ratio(counts["repair.initial_pairs"]-counts["repair.remaining_pairs"], counts["repair.initial_pairs"])
	m["cluster.aborted_share"] = ratio(counts["cluster.aborted"], counts["cluster.aborted"]+counts["cluster.committed"])
	m["service.resp_kb_per_req"] = ratio(counts["service.resp_bytes"]/1024, counts["service.requests"])
	return m
}

// countSession adds one detection session's (or one repair's) SAT-query
// work to the counted round.
func countSession(rc *runCtx, st atropos.DetectStats) {
	rc.count("anomaly.queries", float64(st.Queries))
	rc.count("anomaly.solved", float64(st.Solved))
	rc.count("anomaly.replayed", float64(st.Replayed))
	rc.count("anomaly.txn_hits", float64(st.TxnHits))
	rc.count("anomaly.txn_misses", float64(st.TxnMisses))
}

// heapSampler reads HeapInuse every 100 ms and keeps the maximum.
type heapSampler struct {
	quit chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		peak := uint64(0)
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-tick.C:
			case <-h.quit:
				h.peak <- peak
				return
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	return float64(<-h.peak) / 1e6
}

// procMetrics fills the process-level numbers of a traced run. VmHWM is the
// process's high-water mark: when several workloads run in one process it
// is cumulative.
func procMetrics(m map[string]float64, before *runtime.MemStats, heapPeakMB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.heap_peak_mb"] = heapPeakMB
	m["proc.gc_cycles"] = float64(ms.NumGC - before.NumGC)
	m["proc.gc_cpu_share"] = ms.GCCPUFraction
	m["proc.peak_rss_mb"] = peakRSSMB()
}

func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
