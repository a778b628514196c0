# Convenience wrapper; everything below is plain dune.

.PHONY: check build test test-checked lint certify kernels-smoke bench bench-suite bench-suite-quick bench-scale bench-scale-quick bench-service bench-service-quick bench-net bench-net-quick serve party-demo clean

# Query-service knobs (flags win; see DESIGN.md "Query service")
ORQ_SOCKET ?= /tmp/orq-service.sock
ORQ_SF ?= 0.001

check: build test lint kernels-smoke

build:
	dune build

test:
	dune runtest

# Static lints (see DESIGN.md "Leakage analysis" and "Concurrency
# discipline"): the audited tree must be clean under both the leakage
# lint and the concurrency-discipline lint, and each deliberately-bad
# fixture must trip its pass's rules (self-tests that the lints still
# catch what they claim to).
lint:
	dune exec bin/orq_lint.exe -- lint lib
	dune exec bin/orq_lint.exe -- lint --expect-violations test/lint_fixtures
	dune exec bin/orq_lint.exe -- concur lib
	dune exec bin/orq_lint.exe -- concur --expect-violations test/lint_fixtures

# Full test suite with the runtime lock checker on: every Locked
# acquisition the tests perform is checked against the declared rank
# order, wait discipline, and the no-locks-in-finalisers rule.
test-checked:
	ORQ_DEBUG_CHECKS=1 dune runtest --force

# Oblivious-transcript certificate: predicted (cost model over a shape
# twin) vs measured structural transcripts for the 31-query suite under
# all three protocols; writes CERTIFICATE.json. ~2 min; `--quick` runs a
# representative subset in seconds.
# The second pass re-certifies with out-of-core streaming forced on
# (small chunks, tight budget): all (query, protocol) pairs must still
# certify, i.e. chunked execution leaves the oblivious transcript and
# the cost model's prediction untouched.
certify:
	dune exec bin/orq_lint.exe -- certify
	ORQ_CHUNK_ROWS=512 ORQ_MEM_BUDGET=4M dune exec bin/orq_lint.exe -- certify --out CERTIFICATE_chunked.json

# Quick micro-kernel benchmark at 2 domains: exercises the pool dispatch
# path end to end, gates the packed flag-lane AND at >= 8x the word AND,
# and refreshes BENCH_kernels.json (quick sizes, ~10s).
kernels-smoke:
	dune exec bench/main.exe -- micro-kernels --quick --domains 2

bench:
	dune exec bench/main.exe

# Query-suite audit: every query (22 TPC-H + 9 prior-work) under all
# three protocols in the default, no-fusion and word-flags configs, plus
# forced sort/linear/quad joins on Q3/Q5/Q7/Q9/Q21; each cell runs once
# over datasets generated once, and every run is plaintext-validated.
# Gates: fusion keeps bits/messages, packed flags keep rounds/bits/
# messages, linear beats sort on rounds or bits, and cost-based auto never
# loses to a forced join. Refreshes BENCH_suite.json. The quick target
# runs the headline queries under sh-hm (~1 min).
bench-suite:
	dune exec bench/main.exe -- suite

bench-suite-quick:
	dune exec bench/main.exe -- suite --quick

# Out-of-core scaling audit: chunked streaming overhead vs monolithic
# (<= 1.3x), an SF 0.1 run completing under a budget clamped to 1/4 of
# its own unlimited peak (with real spills and identical tallies), and
# the SF ladder behind EXPERIMENTS.md; refreshes BENCH_scale.json.
# --quick shrinks the big run to SF 0.02 (~5 min); ORQ_SCALE_SF overrides
# the big-run scale factor.
bench-scale:
	dune exec bench/main.exe -- scale

bench-scale-quick:
	dune exec bench/main.exe -- scale --quick

# Foreground query service on $(ORQ_SOCKET); query it with
#   dune exec bin/orq_cli.exe -- query --socket $(ORQ_SOCKET) "SELECT ..."
serve:
	dune exec bin/orq_cli.exe -- serve --socket $(ORQ_SOCKET) --sf $(ORQ_SF) -v

# Closed-loop service throughput sweep over (protocol, workers,
# concurrency, cache mode); refreshes BENCH_service.json. Cold cells run
# LAN-paced (workers hold their slot for the query's modeled network
# time) and every cold response is checked byte-identical against the
# serial workers=1 reference; exits nonzero if 8-worker cold throughput
# is below 4x the single worker. --quick shrinks it to a workers 1-vs-4
# gate (>= 2x) in a few seconds.
bench-service:
	dune exec bench/service.exe

bench-service-quick:
	dune exec bench/service.exe -- --quick

# Forked local 3-party cluster on loopback TCP — real OS processes
# exchanging real framed messages — running demo queries and printing
# metered-vs-measured wire traffic (see DESIGN.md "Real multi-party
# deployment"). Use `orq_cli party --id k --peers ...` for the manual
# N-terminal version.
party-demo:
	dune exec bin/orq_cli.exe -- party --local -p sh-hm

# Real-deployment audit: for each protocol, fork a complete party
# cluster on loopback TCP (2/3/4 processes) and push the SQL suite
# through it, asserting every response and every measured wire counter
# byte-identical to the in-process simulation; refreshes BENCH_net.json.
# --quick runs a 3-query subset per protocol in seconds.
bench-net:
	dune exec bench/net.exe

bench-net-quick:
	dune exec bench/net.exe -- --quick

clean:
	dune clean
