# Convenience targets; everything is driven by dune underneath.

.PHONY: all build lint taint test bench trace perf perfbench-selfcheck soak soak-sample ci clean

all: build

build:
	dune build

# Run sfslint over lib/ and refresh the committed lint-report.json
# (the @lint alias is a drift gate: it diffs the regenerated report
# against the committed one; --auto-promote refreshes it in place).
lint:
	dune build @lint --auto-promote

# Run the sfstaint whole-program secret-flow analysis over lib/ and
# refresh the committed taint-report.json the same way.
taint:
	dune build @taint --auto-promote

# Full tier-1 suite (includes the @lint/@taint gates and both tools'
# self-test suites).
test:
	dune runtest

bench:
	dune exec bench/main.exe

# Re-run each figure with tracing on: Chrome trace_event JSON (load in
# Perfetto / about:tracing) plus flat JSONL metrics, one pair per figure,
# under _traces/.  --no-results keeps BENCH_results.json untouched.
trace: build
	mkdir -p _traces
	for fig in fig5 fig6 fig7 fig8 fig9 pipeline; do \
	  dune exec bench/main.exe -- $$fig \
	    --trace _traces/$$fig.trace.json \
	    --metrics _traces/$$fig.metrics.jsonl \
	    --no-results; \
	done

# Fast-path regression gate (DESIGN.md §9).  Exercises the real-CPU
# crypto suite once as a warm-up (CPU-time numbers still depend on
# cache and frequency state), then re-runs it for the record plus
# every simulated-time figure into a temp file and gates twice:
# benchdiff fails on a performance *trend* regression vs HEAD (>10%
# throughput drop, >15% critical-path p99 inflation, >10% growth in a
# crypto case's deterministic bytes-allocated-per-op, or a crypto
# case's CPU time past a coarse 2.5x host-normalized backstop —
# waivable only via perf-allowlist.txt), then the byte-diff fails on
# ANY drift in the simulated figures — i.e. if an "optimization"
# changed wire bytes or modeled costs without the baseline being
# regenerated and reviewed.  Crypto lines are real CPU time and so
# excluded from the byte-diff; only benchdiff's trend gate covers them.
perf: build
	dune exec --no-build bench/main.exe -- crypto --no-results
	rm -f _perf_results.json
	dune exec --no-build bench/main.exe -- crypto --results _perf_results.json
	dune exec --no-build bench/main.exe -- fig5 fig6 fig7 fig8 fig9 pipeline ablations faults scale flashcrowd --results _perf_results.json
	git show HEAD:BENCH_results.json > _perf_head.json
	@dune exec --no-build tools/benchdiff/benchdiff.exe -- \
	  --baseline _perf_head.json --current _perf_results.json --allow perf-allowlist.txt \
	  > _perf_benchdiff.txt 2>&1; st=$$?; cat _perf_benchdiff.txt; \
	  if [ $$st -ne 0 ]; then echo "perf: benchdiff FAILED (report kept in _perf_benchdiff.txt)"; exit $$st; fi
	grep -v '"figure":"crypto"' _perf_head.json > _perf_head_sim.json
	grep -v '"figure":"crypto"' _perf_results.json > _perf_now_sim.json
	diff -u _perf_head_sim.json _perf_now_sim.json
	rm -f _perf_results.json _perf_head.json _perf_head_sim.json _perf_now_sim.json _perf_benchdiff.txt
	@echo "perf: simulated-time figures unchanged vs HEAD; crypto trend within budget"

# Real-time benchmark determinism gate (perfbench/): each workload runs
# twice with one seed, and the two runs must agree on allocation per
# op, per-layer counter deltas, span counts and the engines' ledgers.
# A change to a cache or any other hot-path structure has to keep the
# program's own work deterministic, not only the simulated figures.
perfbench-selfcheck: build
	python3 perfbench/run.py --selfcheck

# Chaos soak (tools/soak): seeded fault plans against a 60-client
# pipelined fleet (25 plans) and the read-only replica tier (5 plans),
# each plan run twice with a byte-identical-ledger determinism check.
# `soak` runs the whole 30-plan corpus (~2 min);
# `soak-sample` runs the 5-plan slice CI runs per push, rotated
# deterministically from the commit SHA so the corpus is covered over
# a stream of commits without any one job paying for all of it.
soak: build
	dune exec --no-build tools/soak/soak.exe

soak-sample: build
	dune exec --no-build tools/soak/soak.exe -- --plans 5 --sha $$(git rev-parse HEAD)

# Everything the CI workflow runs, in the same order: build, the full
# tier-1 test suite (which includes the @lint/@taint drift gates), the
# perf determinism gate, the real-time benchmark self-check, the
# SHA-rotated chaos-soak sample, and a
# strict static-analysis pass (no promotion: a stale committed report
# fails here, as in CI).  Mirrors .github/workflows/ci.yml — see the
# "CI" section of README.md for the job-by-job mapping.
ci: build test perf perfbench-selfcheck soak-sample
	dune build @lint @taint
	@echo "ci: all gates passed"

clean:
	dune clean
