package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"atropos"
	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/engine"
	"atropos/internal/logic"
	"atropos/internal/parser"
	"atropos/internal/repair"
	"atropos/internal/replay"
	"atropos/internal/sat"
	"atropos/internal/sema"
	"atropos/internal/service"
)

// Layer probes: plain timed calls into public functions of the layers that
// cannot be spanned from outside (detection inside repair.Run, the encoder
// and the solver under it, certification inside the daemon). Each is the
// fastest of probeReps calls; counts come from the last call.
const (
	probeReps      = 5
	overheadPairs  = 30        // engine/service overhead: median of paired differences; a multiple of 6
	overheadBench  = "SIBench" // small enough that a fixed per-call cost shows
	satLoadClauses = 100_000
	satLoadVars    = 20_000
	satLoadSeed    = 1
)

// fastest times f probeReps times and returns the shortest wall time.
func fastest(f func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runProbes probes every layer on the named Table-1 program under EC.
func runProbes(bench string) (map[string]float64, error) {
	ctx := context.Background()
	b := atropos.BenchmarkByName(bench)
	if b == nil {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	src := ast.Format(prog)
	m := map[string]float64{}
	var probeErr error
	fail := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}

	// parser, sema, ast
	var parsed *ast.Program
	d := fastest(func() { parsed, err = parser.Parse(src); fail(err) })
	m["parser.parse_us"] = us(d)
	m["parser.mb_per_s"] = float64(len(src)) / 1e6 / d.Seconds()
	if probeErr != nil {
		return nil, probeErr
	}
	m["sema.check_us"] = us(fastest(func() { fail(sema.Check(parsed)) }))
	m["ast.format_us"] = us(fastest(func() { _ = ast.Format(prog) }))

	// anomaly: cold, warm and sequential detection
	var sess *anomaly.DetectSession
	var rep *anomaly.Report
	detectCold := func(width int) time.Duration {
		return fastest(func() {
			sess = anomaly.NewSession(anomaly.EC)
			sess.SetParallelism(width)
			rep, err = sess.DetectContext(ctx, prog)
			fail(err)
		})
	}
	seq := detectCold(1)
	cold := detectCold(repair.DefaultParallelism())
	if probeErr != nil {
		return nil, probeErr
	}
	m["anomaly.detect_cold_ms"] = ms(cold)
	m["anomaly.par_speedup_x"] = float64(seq) / float64(cold)
	m["anomaly.us_per_query"] = ratio(us(cold), float64(rep.Queries))
	m["anomaly.detect_warm_us"] = us(fastest(func() { _, err = sess.DetectContext(ctx, prog); fail(err) }))

	// logic and sat: the order axioms the encodings ground, and the search
	m["logic.order_axioms_n16_us"], _, _ = orderAxioms(16)
	var order *sat.Solver
	m["logic.order_axioms_n32_us"], m["sat.order_solve_n32_us"], order = orderAxioms(32)
	m["logic.order_axioms_n32_vars"] = float64(order.NumVars())
	m["logic.encoder_acquire_us"] = us(fastest(func() { logic.AcquireEncoder().Release() }))
	var php *sat.Solver
	m["sat.php8_ms"] = ms(fastest(func() {
		php = pigeonhole(8)
		if php.Solve() {
			fail(fmt.Errorf("pigeonhole 8 into 7 reported satisfiable"))
		}
	}))
	m["sat.conflicts"] = float64(order.Conflicts + php.Conflicts)
	m["sat.decisions"] = float64(order.Decisions + php.Decisions)
	m["sat.propagations"] = float64(order.Propagations + php.Propagations)
	instance := random3SAT()
	m["sat.add_clause_ns"] = float64(fastest(func() { loadClauses(instance) })) / satLoadClauses

	// repair: the whole pipeline, and how much the passes after the first cost
	var res *repair.Result
	run := fastest(func() { res, err = repair.Run(ctx, prog, anomaly.EC); fail(err) })
	if probeErr != nil {
		return nil, probeErr
	}
	m["repair.run_ms"] = ms(run)
	m["repair.passes_over_cold_x"] = float64(run) / float64(cold)
	m["ast.cmds_in"], m["ast.tables_in"] = programSize(prog)
	m["ast.cmds_out"], m["ast.tables_out"] = programSize(res.Program)

	// replay: witness certification
	var cert *replay.Certificate
	certify := fastest(func() { cert, _, err = replay.CertifyModelContext(ctx, prog, anomaly.EC); fail(err) })
	if probeErr != nil {
		return nil, probeErr
	}
	m["replay.certify_ms"] = ms(certify)
	m["replay.ms_per_pair"] = ratio(ms(certify), float64(cert.Total))
	m["replay.certified_share"] = cert.Rate()

	fail(overheadProbes(ctx, m))
	return m, probeErr
}

// orderAxioms grounds a strict total order over n items on a fresh encoder
// and solves it; it returns the fastest build and solve and the last solver.
func orderAxioms(n int) (buildUs, solveUs float64, s *sat.Solver) {
	var build, solve time.Duration
	for i := 0; i < probeReps; i++ {
		e := logic.NewEncoder()
		syms := make([][]logic.Sym, n)
		for x := range syms {
			syms[x] = make([]logic.Sym, n)
			for y := range syms[x] {
				syms[x][y] = e.Symf("o_%d_%d", x, y)
			}
		}
		t0 := time.Now()
		e.AssertStrictTotalOrderS(n, func(x, y int) logic.Sym { return syms[x][y] })
		t1 := time.Now()
		e.Solve()
		t2 := time.Now()
		if i == 0 || t1.Sub(t0) < build {
			build = t1.Sub(t0)
		}
		if i == 0 || t2.Sub(t1) < solve {
			solve = t2.Sub(t1)
		}
		s = e.S
	}
	return us(build), us(solve), s
}

// pigeonhole encodes n pigeons into n-1 holes: unsatisfiable, and hard for
// resolution, so the time is search.
func pigeonhole(n int) *sat.Solver {
	s := sat.New()
	v := make([][]int, n)
	for p := range v {
		v[p] = make([]int, n-1)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		lits := make([]sat.Lit, n-1)
		for h := range lits {
			lits[h] = sat.NewLit(v[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n-1; h++ {
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				s.AddClause(sat.NewLit(v[p][h], true), sat.NewLit(v[q][h], true))
			}
		}
	}
	return s
}

// random3SAT draws a seeded random 3-SAT instance, three literals a clause.
func random3SAT() []sat.Lit {
	rng := rand.New(rand.NewSource(satLoadSeed))
	lits := make([]sat.Lit, 3*satLoadClauses)
	for i := range lits {
		lits[i] = sat.NewLit(rng.Intn(satLoadVars), rng.Intn(2) == 0)
	}
	return lits
}

// loadClauses adds the instance to a fresh solver.
func loadClauses(lits []sat.Lit) {
	s := sat.New()
	for i := 0; i < satLoadVars; i++ {
		s.NewVar()
	}
	for i := 0; i+3 <= len(lits); i += 3 {
		s.AddClause(lits[i], lits[i+1], lits[i+2])
	}
}

// programSize counts a program's database commands and tables.
func programSize(p *ast.Program) (cmds, tables float64) {
	for _, t := range p.Txns {
		cmds += float64(len(ast.Commands(t.Body)))
	}
	return cmds, float64(len(p.Schemas))
}

// overheadProbes measures what the engine adds to a repair and what HTTP
// adds to the engine: the same small program through repair.Run,
// Engine.Repair and POST /v1/repair in turn, the median of the paired
// differences.
func overheadProbes(ctx context.Context, m map[string]float64) error {
	prog, err := atropos.BenchmarkByName(overheadBench).Program()
	if err != nil {
		return err
	}
	body, err := json.Marshal(service.ProgramRequest{Source: ast.Format(prog)})
	if err != nil {
		return err
	}
	eng := engine.New(engine.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: service.New(eng)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/v1/repair"

	// The three calls of a pass run in each of their six orders in turn, so
	// none of them always pays for what another left in the caches.
	orders := [][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {2, 1, 0}, {1, 0, 2}}
	calls := []func() error{
		func() error { _, err := repair.Run(ctx, prog, anomaly.EC); return err },
		func() error { _, err := eng.Repair(ctx, prog, anomaly.EC); return err },
		func() error {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("overhead probe: status %d", resp.StatusCode)
			}
			return err
		},
	}
	var engineOver, serviceOver []float64
	for i := 0; i <= overheadPairs; i++ {
		var took [3]time.Duration
		for _, k := range orders[i%len(orders)] {
			t0 := time.Now()
			if err := calls[k](); err != nil {
				return err
			}
			took[k] = time.Since(t0)
		}
		if i == 0 {
			continue // the first pass opens the connection and warms the pools
		}
		engineOver = append(engineOver, us(took[1]-took[0]))
		serviceOver = append(serviceOver, us(took[2]-took[1]))
	}
	m["engine.overhead_us"] = median(engineOver)
	m["service.overhead_us"] = median(serviceOver)
	return nil
}
