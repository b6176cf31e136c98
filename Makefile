# Makefile — the same entry points CI uses, so humans and automation
# invoke identical commands.

GO ?= go

.PHONY: build test test-full race bench bench-cycle bench-http bench-ckpt bench-trace bench-store bench-baseline bench-gate fmt vet perfbench-vet examples cli-smoke engine-identity fuzz-smoke crash-test obs-smoke docs docs-check ci

build:
	$(GO) build ./...

# Fast suite: slow qualitative sweeps are gated behind -short equivalents.
test:
	$(GO) test -short ./...

# Full suite, including the full-scale qualitative experiments (~1 min).
test-full:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Benchmark smoke pass: every benchmark once, no test functions.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Fixed iteration count for the per-cycle micro-benchmark: large enough
# for a stable ns/op, small enough to finish in seconds.
CYCLE_ITERS ?= 200000x

# Per-cycle micro-benchmark at a fixed iteration count (stable ns/op).
bench-cycle:
	$(GO) test -bench='^BenchmarkCycle$$' -benchtime=$(CYCLE_ITERS) -run='^$$' .

# HTTP layer of the serve path (handler, JSON, suite cache hit) at a
# fixed iteration count, as test2json lines. One served POST /simulate
# cache hit is tens of microseconds, so 20000 iterations run in about a
# second. Record-only: no baseline entry or gate.
bench-http:
	$(GO) test -json -bench='^BenchmarkSimulateHit$$' -benchtime=20000x -run='^$$' ./internal/shrecd/

# Checkpoint layer of the recovery path: capture, spawn and in-place
# rollback of a SHREC engine warmed for 16k crafty instructions, at a
# fixed iteration count, as test2json lines. One operation is well under
# a millisecond, so 2000 iterations of each run in a few seconds.
# Record-only: no baseline entry or gate.
bench-ckpt:
	$(GO) test -json -bench='^BenchmarkCheckpoint$$' -benchtime=2000x -run='^$$' ./internal/core/

# Trace layer: generating one correct-path instruction (Next), generating
# and storing it on a tape (TapeBuild, with the tape's bytes per
# instruction), and replaying it from a tape (CursorNext), as test2json
# lines. One op is one instruction, so ns/op is ns per instruction; a
# million of each run in well under a second. Record-only: no baseline
# entry or gate.
bench-trace:
	$(GO) test -json -bench='^BenchmarkTrace$$' -benchtime=1000000x -run='^$$' ./internal/trace/

# Store layer: appending one record to a SyncNever store from GOMAXPROCS
# goroutines (Put), decoding one stored value (Get), and replaying a
# closed store of 10k records at open (Open), as test2json lines. Put and
# Get take microseconds, an open about 20 ms, so each runs about a
# second. Record-only: no baseline entry or gate.
bench-store:
	$(GO) test -json -bench='^BenchmarkStore$$/^(Put|Get)$$' -benchtime=20000x -run='^$$' ./internal/store/
	$(GO) test -json -bench='^BenchmarkStore$$/^Open$$' -benchtime=50x -run='^$$' ./internal/store/

# Regenerate the committed benchmark baseline: the Cycle micro-benchmark
# at fixed iterations plus the 1x smoke pass over every benchmark
# (duplicate names keep the higher-iteration measurement).
bench-baseline:
	{ $(GO) test -json -bench='^BenchmarkCycle$$' -benchtime=$(CYCLE_ITERS) -run='^$$' . ; \
	  $(GO) test -json -bench=. -benchtime=1x -run='^$$' ./... ; } | \
	$(GO) run ./cmd/benchgate -extract \
		-note "make bench-baseline (BenchmarkCycle at $(CYCLE_ITERS), others at 1x)" \
		-o BENCH_baseline.json

# Compare a fresh Cycle run against the committed baseline; fails on a
# >25% ns/op regression of any BenchmarkCycle sub-benchmark.
bench-gate:
	$(GO) test -json -bench='^BenchmarkCycle$$' -benchtime=$(CYCLE_ITERS) -run='^$$' . | \
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json

# Regenerate the generated documentation (the experiment catalog) from
# the experiment registry. Commit the result; CI enforces it is current.
docs:
	$(GO) run ./cmd/experiments -docs -o docs/EXPERIMENTS.md

# Fail when committed generated docs drift from the registry (the CI
# docs-drift gate; run `make docs` and commit to fix).
docs-check: docs
	@git diff --exit-code -- docs/EXPERIMENTS.md || \
		{ echo "docs/EXPERIMENTS.md is stale: run 'make docs' and commit"; exit 1; }

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# perfbench is a nested module, so the root ./... patterns skip it; vet
# it on its own so an API change that breaks the benchmark harness fails
# here instead of landing silently.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# Examples smoke: the published examples must build, vet, and (for the
# quickstart, the pareto-explore search, and the availability-frontier
# recovery sweep, which run in seconds) actually execute. pareto-explore
# writes its resumable store — a directory of segments — to the working
# directory; remove it so repeated smoke runs start fresh.
examples:
	$(GO) vet ./examples/...
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
	rm -rf pareto-explore.db
	$(GO) run ./examples/pareto-explore
	rm -rf pareto-explore.db
	$(GO) run ./examples/availability-frontier

# CLI smoke: run each batch command (experiments, explore, faultstudy)
# twice at tiny run lengths on one -store directory. The second run must
# simulate nothing: its counter line on stderr reads "(runs=0 ...". The
# first experiments pass must count no hits: every experiment reads its
# aggregates from the results of its own batch.
# explore must reject a bad -format with exit 2 before it opens its store
# or simulates anything.
CLI_SMOKE_LENGTHS = -warmup 2000 -n 5000

cli-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/" ./cmd/experiments ./cmd/explore ./cmd/faultstudy; \
	for cmd in "experiments -quick -run fig2 $(CLI_SMOKE_LENGTHS)" \
	           "explore -bases ss1,shrec $(CLI_SMOKE_LENGTHS)" \
	           "faultstudy -machines ss1,shrec -rates 1e-4 -trials 8 $(CLI_SMOKE_LENGTHS)"; do \
		name=$${cmd%% *}; \
		for pass in 1 2; do \
			"$$d"/$$cmd -store "$$d/$$name.db" >/dev/null 2>"$$d/$$name.err"; \
			if [ $$pass = 1 ] && [ $$name = experiments ]; then \
				line=$$(grep '^(runs=' "$$d/$$name.err" || true); \
				echo "cli-smoke: $$name first pass $$line"; \
				case "$$line" in *" hits="*) echo "cli-smoke: $$name first pass counted hits"; exit 1;; esac; \
			fi; \
		done; \
		line=$$(grep '^(runs=' "$$d/$$name.err" || true); \
		echo "cli-smoke: $$name rerun $$line"; \
		case "$$line" in "(runs=0 "*) ;; *) echo "cli-smoke: $$name rerun simulated"; exit 1;; esac; \
	done; \
	code=0; "$$d/explore" -format yaml -store "$$d/yaml.db" >/dev/null 2>&1 || code=$$?; \
	if [ $$code -ne 2 ] || [ -e "$$d/yaml.db" ]; then \
		echo "cli-smoke: explore -format yaml exited $$code (want 2, store untouched)"; exit 1; \
	fi; \
	echo "cli-smoke: explore -format yaml exited 2 before simulating"

# Engine identity: the full (non-short) fast-forward/tick-loop
# equivalence suite over every workload, and the cross-mode conformance
# suite, both auditing the engine's invariants after every step (the
# equivalence suite audits its fast loop); the issue-queue cursor test at
# a ring tail of 0; and the lockstep SS2 seeds that once deadlocked. The
# short suite runs equivalence on the memory-bound workload only; this
# target covers all three (about 23 s on 2 vCPUs). The conformance suite
# includes tape replay (TestConformanceTapeReplay); the suite-level tape
# tests check that replayed results, ckpt@ recovery across a tape's end
# included, equal runs on a fresh generator, that every golden run and
# trial resumed from a warmup checkpoint warmed on a tape equals one
# warmed on a generator (over the conformance machines, tapes ending
# past, inside and before the run), and that an evicted tape a checkpoint
# still holds is revived rather than rebuilt; and the clean-trial
# derivation cross checks that every campaign trial derived from its
# golden run has a fresh simulation's bytes, over the conformance
# machines, four rates, three windows and both recovery settings (about
# 40 s more).
engine-identity:
	$(GO) test -count=1 -run 'TestFastForwardEquivalence|TestConformance|TestMaskCursorTailZero|TestSS2LockstepSeeds|TestAuditDetectsCorruption' ./internal/core/
	$(GO) test -count=1 -run 'TestSuiteSharesTapes|TestTapeRecoveryIdentity|TestTapeWarmupIdentity|TestTapeRevival' ./internal/sim/
	$(GO) test -count=1 -run 'TestCleanTrialDerivationIdentity' ./internal/campaign/

# Fuzz smoke: each native fuzz target for 10 s (go test -fuzz runs one
# target in one package at a time): the machine-spec grammar's round trip,
# the recovery-mode grammar's, the trace-file (serialized tape) reader's,
# tape cursors against the generator, the result store's record decoder
# and its replay of an arbitrary segment file at open, and campaign and
# exploration spec normalization (each a fixed point that round-trips
# through JSON).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSpecRoundTrip$$' -fuzztime=10s ./internal/config/
	$(GO) test -run='^$$' -fuzz='^FuzzParseMode$$' -fuzztime=10s ./internal/recovery/
	$(GO) test -run='^$$' -fuzz='^FuzzReadTape$$' -fuzztime=10s ./internal/trace/
	$(GO) test -run='^$$' -fuzz='^FuzzTapeCursor$$' -fuzztime=10s ./internal/trace/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRecord$$' -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzSegmentReplay$$' -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzCampaignNormalize$$' -fuzztime=10s ./internal/campaign/
	$(GO) test -run='^$$' -fuzz='^FuzzExploreNormalize$$' -fuzztime=10s ./internal/explore/

# Crash-recovery acceptance: SIGKILL a real shrecd mid-campaign and
# assert the restarted server re-adopts the journaled job and finishes
# it with the same results; then the store corruption/chaos suites
# (opening an earlier version's 8-shard layout, a compaction's leftover
# temporary file and the sequence-number limit included), the in-process kill-rejoin/shedding/watchdog suites,
# and the Remote client (the retrying, polling half of recovery) under
# -race; then campaign and
# exploration kill-and-resume, which fan out through the suite's store
# hits, also under -race.
crash-test:
	$(GO) test -count=1 -run 'TestCrashRecoverySIGKILL' -v ./cmd/shrecd/
	$(GO) test -race -count=1 -run 'TestChaos|TestPutRollback|TestOpenRejectsRegularFile|TestOpenLegacyShardedLayout|TestOpenCompactionTempFile|TestSequenceNumberWrap|TestReopenPersists|TestCompaction|TestSyncAlways' ./internal/store/
	$(GO) test -race -count=1 -run 'TestCrashRejoin|TestReplay|TestShedding|TestWatchdog' ./internal/shrecd/
	$(GO) test -race -count=1 -run 'TestRemote' .
	$(GO) test -race -count=1 -run 'TestCampaignResume|TestCampaignCancellation|TestRecoveryCampaignKillAndResume|TestCampaignOneRecordPerSimulation|TestCampaignIdentityAcrossResumeAndParallelism' ./internal/campaign/
	$(GO) test -race -count=1 -run 'TestExploreResume|TestStrategiesShareEvaluations|TestTrialsIgnoredByUnfaultedKeys' ./internal/explore/

# Observability smoke: run the real shrecd binary with -pprof, drive a
# tiny campaign through it, and assert the telemetry surface end to end
# (/metrics passes the exposition lint and carries the request/job/stage
# families, job status exposes its phase breakdown, pprof mounts); then
# the in-process exposition lint suite.
obs-smoke:
	$(GO) test -count=1 -run 'TestObsSmoke' -v ./cmd/shrecd/
	$(GO) test -count=1 -run 'TestMetrics' ./internal/shrecd/
	$(GO) test -count=1 -run 'TestLint|TestRenderPassesLint' ./internal/telemetry/

ci: build vet perfbench-vet fmt test engine-identity fuzz-smoke examples cli-smoke docs-check
