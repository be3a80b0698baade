# Atropos-Go development targets. `make ci` is the full gate mirrored by
# .github/workflows/ci.yml: the workflow's jobs invoke these targets, so
# changing a gate means changing it here.

GO ?= go

# Coverage floor enforced by `make cover` and the CI coverage job.
COVER_FLOOR ?= 60

# Seconds each fuzz target runs under `make fuzz` / the nightly workflow.
FUZZTIME ?= 30s

.PHONY: ci fmt vet build oracle-guard test race bench bench-harness bench-compare cover certify loadtest-smoke chaos service-chaos fuzz profile loc

ci: fmt vet build oracle-guard race bench bench-harness cover certify loadtest-smoke chaos service-chaos

# gofmt as a check: fail (and list the files) if anything is unformatted.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# internal/sat and internal/logic are the small model's test oracle: an
# un-tuned solver that only has to be right. Fail if a command or an
# example links either of them.
oracle-guard:
	@deps="$$($(GO) list -deps ./cmd/... ./examples/...)" || exit 1; \
	out="$$(echo "$$deps" | grep -E '^atropos/internal/(sat|logic)$$')"; \
	if [ -n "$$out" ]; then \
		echo "the SAT oracle is linked into a command or an example:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over every experiment benchmark and hot-path microbenchmark —
# a smoke test that each driver still runs, not a measurement — followed by
# the allocation-regression gate: allocs/op of the repair pipeline
# (BenchmarkTable1_*), the simulator (BenchmarkSim*; the *Interp ones run
# the tests' AST reference on the same workload), witness certification
# (BenchmarkCertify_*: directed runs on the simulator's executor), the
# invariant study (BenchmarkInvariants_*: directed and serial runs), the
# front end (parse and check of the nine sources: BenchmarkFrontEnd, each a
# whole-source hit in the parser's memo; BenchmarkFrontEndReflowed, re-indented,
# its declarations from the memo; BenchmarkParseCold, the memo empty),
# the editing loop (BenchmarkSessionEdit: one session across
# drop/restore edits) and the daemon's request path (BenchmarkService_*: program verbs
# through HTTP, computed on a fresh engine and answered from a warm one) are
# deterministic and machine-independent, so they are compared against the
# checked-in BENCH_allocs.json thresholds (>15% regression fails; wall
# clock stays informational). Exact counts are Go goldens, not measured
# here. The output lands in bench-smoke.txt, which the CI bench job uploads
# as an artifact. The root package's benchmarks run ten times each: at one
# run, BenchmarkTable1_*'s B/op read in two modes up to 23 % apart from one
# `make bench` to the next; at ten, in one, within 4 % (CHANGES.md).
# (Redirect + cat rather than tee: a pipe would mask go test's exit code.)
bench:
	@{ $(GO) test -bench . -benchtime 10x -run '^$$' . && \
		$(GO) test -bench . -benchtime 1x -run '^$$' $(BENCH_PKGS); } > bench-smoke.txt; \
	status=$$?; cat bench-smoke.txt; \
	if [ $$status -ne 0 ]; then exit $$status; fi
	$(GO) run ./cmd/allocgate -bench bench-smoke.txt -thresholds BENCH_allocs.json

# The benchmark harness (bench/, BENCHMARK.json's command) is a module of
# its own, so `go vet ./...` and `go test ./...` at the root skip it; it
# imports this module's packages, internal ones included, through a
# replace directive. Vet and test it here (~25 s: its smoke test runs all
# four workloads once), so that an API change on the program side that
# breaks the harness fails CI and not the next benchmark run.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Packages `make bench` runs once each, after the root package; BASE_REF is
# the ref `make bench-compare` measures against.
BASE_REF ?= HEAD~1
BENCH_PKGS ?= ./internal/anomaly ./internal/parser ./internal/logic ./internal/sat ./internal/cluster ./internal/replay ./internal/service

# One parent/change pair on the benchmark (bench/run.sh, BENCHMARK.json's
# command, all four workloads): BASE_REF runs in a throwaway git worktree,
# the working tree writes bench/out/head, and `bench/run.sh -compare`
# prints the verdict per metric and sets the exit status (non-zero when a
# metric is worse beyond its bound). One pair is a smoke check; a claimed
# gain needs repeated pairs (bench/README.md).
bench-compare:
	@set -e; tmp=$$(mktemp -d); \
	git worktree add --quiet --detach $$tmp/tree $(BASE_REF); \
	echo "== benchmark at $(BASE_REF) =="; \
	( cd $$tmp/tree && bash bench/run.sh -out $$tmp/base ) || \
		{ git worktree remove --force $$tmp/tree; rm -rf $$tmp; exit 1; }; \
	git worktree remove --force $$tmp/tree; \
	echo "== benchmark at working tree =="; \
	status=0; bash bench/run.sh -out bench/out/head && \
		bash bench/run.sh -compare $$tmp/base/result.json bench/out/head/result.json || status=$$?; \
	rm -rf $$tmp; exit $$status

# Coverage with a floor: write cover.out (the CI job uploads it) and fail
# if total statement coverage drops below COVER_FLOOR percent.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$total >= $(COVER_FLOOR)) }" || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Witness-replay certification gate: every benchmark × weak model must
# replay >= 95% of its detected anomalies as executable certificates, and
# the SC / repaired-program negative controls must show zero violations.
certify:
	$(GO) run ./cmd/atropos-exp -exp certify

# Run every fuzz target for FUZZTIME each (the nightly workflow runs the
# same fuzz-<Target> rules; `go test` allows one -fuzz pattern per run).
# Minimizing a new input is capped at 2 s (go test's default is 60 s,
# twice a whole run). A run that executes fewer inputs than its target's
# floor (the last `execs:` go test prints) fails: a 30 s run that spends
# its budget minimizing has not fuzzed. Each floor is about a quarter of
# the lower of two 30 s readings on a 2-core machine (CHANGES.md); a
# FUZZTIME under 30s is held to the same floors.
FUZZ_TARGETS = FuzzRepairRandomProgram FuzzDetectSessionEquivalence FuzzSmallModel \
	FuzzWitnessReplaySoundness FuzzFaultScheduleEquivalence FuzzParse FuzzSema FuzzServiceRequest
FUZZ_PKG_FuzzRepairRandomProgram = ./internal/repair
FUZZ_PKG_FuzzDetectSessionEquivalence = ./internal/anomaly
FUZZ_PKG_FuzzSmallModel = ./internal/anomaly
FUZZ_PKG_FuzzWitnessReplaySoundness = ./internal/replay
FUZZ_PKG_FuzzFaultScheduleEquivalence = ./internal/cluster
FUZZ_PKG_FuzzParse = ./internal/parser
FUZZ_PKG_FuzzSema = ./internal/sema
FUZZ_PKG_FuzzServiceRequest = ./internal/service
FUZZ_FLOOR_FuzzRepairRandomProgram = 45000
FUZZ_FLOOR_FuzzDetectSessionEquivalence = 28000
FUZZ_FLOOR_FuzzSmallModel = 700
FUZZ_FLOOR_FuzzWitnessReplaySoundness = 1500
FUZZ_FLOOR_FuzzFaultScheduleEquivalence = 1750
FUZZ_FLOOR_FuzzParse = 28000
FUZZ_FLOOR_FuzzSema = 35000
FUZZ_FLOOR_FuzzServiceRequest = 3000

.PHONY: $(addprefix fuzz-,$(FUZZ_TARGETS))
fuzz: $(addprefix fuzz-,$(FUZZ_TARGETS))

# (Output to a file, then cat: a pipe would mask go test's exit code.)
$(addprefix fuzz-,$(FUZZ_TARGETS)): fuzz-%:
	@log=$$(mktemp); \
	$(GO) test $(FUZZ_PKG_$*) -run '^$$' -fuzz '^$*$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s > $$log 2>&1; \
	status=$$?; cat $$log; \
	execs=$$(sed -n 's/.*execs: \([0-9]*\).*/\1/p' $$log | tail -n 1); rm -f $$log; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "$*: $${execs:-0} execs in $(FUZZTIME), floor $(FUZZ_FLOOR_$*)"; \
	[ "$${execs:-0}" -ge $(FUZZ_FLOOR_$*) ] || { echo "$*: under its exec floor"; exit 1; }

# Service load-test smoke: the in-process atroposd daemon under a small
# concurrent client fleet (counts-only assertions — the binary exits
# non-zero if any request is dropped or errors; wall-clock numbers are
# informational). The latency summary lands in loadtest-summary.json,
# which the CI job uploads as an artifact. The full-scale run (64 clients)
# is pinned by count in internal/exp's TestRunLoadFullScaleGolden.
loadtest-smoke:
	@$(GO) run ./cmd/atroposd -loadtest -clients 16 -requests 2 > loadtest-summary.json; \
	status=$$?; cat loadtest-summary.json; \
	if [ $$status -ne 0 ]; then exit $$status; fi

# Chaos gate: every benchmark runs the deterministic fault-scenario panel
# (partitions, crashes, lag, clock skew, drop/reorder) in three
# deployments, and the gate asserts the repair guarantee under faults —
# unrepaired EC programs exhibit serializability violations, the SC
# control and every repaired AT-SC deployment show zero. The runs are
# observed runs of the simulator's one executor (Config.Observe selects no
# engine). Counts are virtual-time deterministic; every row of the panel
# is also pinned in internal/exp's TestChaosPanelGolden.
chaos:
	$(GO) run ./cmd/atropos-exp -exp chaos

# Service-chaos gate: the scripted service-fault harness against a live
# engine — stalled workers, queue overflow, a budget-starved client
# tripping its circuit breaker, an injected handler panic — with every
# count asserted exactly (faults fire at scripted points, not timers, so
# the panel is deterministic). Every count is also pinned in internal/exp's
# TestServiceChaosDeterministic.
service-chaos:
	$(GO) run ./cmd/atroposd -servicechaos

# Capture CPU + allocation profiles of the two hot surfaces — the repair
# pipeline (Table 1 over all nine benchmarks) and the compiled cluster
# simulator (the TPC-C Fig. 12 panel) — so perf work starts from pprof
# instead of guesswork:
#
#	make profile
#	go tool pprof -top -sample_index=alloc_objects profiles/repair.mem.pprof
#	go tool pprof -http=:8080 profiles/sim-tpcc.cpu.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/atropos-exp -exp table1 \
		-cpuprofile profiles/repair.cpu.pprof -memprofile profiles/repair.mem.pprof > /dev/null
	$(GO) run ./cmd/atropos-exp -exp fig12 -bench TPC-C -duration 5 -clients 50 \
		-cpuprofile profiles/sim-tpcc.cpu.pprof -memprofile profiles/sim-tpcc.mem.pprof > /dev/null
	@ls -l profiles/

# Production size: lines of non-test Go outside the benchmark harness
# (bench/ is its own module), per package directory and in total — the
# number ROADMAP.md's quality-of-design aim quotes — then the total of
# _test.go lines outside bench/, so that test-side deletions show too.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
	@find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 cat | wc -l | awk '{ printf "%7d total in _test.go files\n", $$1 }'
