# Local invocations mirror .github/workflows/ci.yml exactly: CI calls these
# same targets, so a green `make ci` locally means a green pipeline. CI
# gates every PR on: gofmt, vet + staticcheck (lint), build, the arm64
# vet and test builds (cross), race tests and the 1–4-worker split rerun
# of the kernel, monitor, serve, wire and daemon suites (test-split)
# across a Go version matrix, plus a fuzz-smoke job (test-fuzz), a
# coverage gate (cover-check against ci/coverage-baseline.txt) and a
# smoke job: the end-to-end binary smoke (smoke: wire soaks with
# server-vs-client accounting, the /metrics lint, the seeded chaos soak,
# drains under a goroutine leak check), then bench-verdicts (every
# output of bench/'s five workloads checked against its oracle, no time
# gated). Replication convergence, with and without injected faults, is
# a Go test in cmd/napmon-serve and runs with every `go test ./...`.
# Performance is measured by bench/ alone (BENCHMARK.json, bench/README.md).

GO ?= go

.PHONY: build cross test race test-split test-fuzz cover cover-check bench-verdicts latency-budget smoke fmt vet lint ci clean

## build: compile every package
build:
	$(GO) build ./...

## cross: vet every package and compile the kernel and network tests for
## arm64, whose only kernels are the pure-Go ones in gemm_other.go (and
## where Go fuses x*y + z into FMADDS/FMADDD, so a float expression that
## must round twice needs an explicit conversion). The amd64 jobs never
## build that file.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/tensor
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/nn

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the full test suite under the race detector (guards the
## monitor's build → publish epoch 1 → serve concurrency model and the shared-network
## ForwardBatch path). Race instrumentation slows the
## experiment-reproduction tests ~10x, hence the long timeout.
race:
	$(GO) test -race -timeout 45m ./...

## test-split: rerun the GEMM and batched-forward parity suites at 1–4
## workers, so a goroutine split that does not land on a micro-tile
## boundary (3 workers over 40 rows, 4 over 250 columns, a dense layer's
## columns in 32-wide pairs of panels) is exercised on every PR, whatever
## the runner's core count, and the monitor's suites with them, so
## WatchBatch's split over chunks runs on top of the dense layers' column
## split. The kernel suites run once per kernel level the host has; the
## first line prints the detected level, so the log says which kernels
## were exercised. The serve and wire suites run at 1–4 too: a lane's
## completions queue verdict frames for a connection's writer, and how
## those two interleave differs at GOMAXPROCS 1, where the lane queues
## its whole batch before the writer runs. The daemon suite runs there
## for the same reason: a follower's poll loop, the leader's HTTP
## handlers and the serving lanes interleave differently at GOMAXPROCS 1.
test-split:
	$(GO) test -count=1 -run '^TestKernelLevel$$' -v ./internal/tensor
	$(GO) test -cpu 1,2,3,4 ./internal/tensor ./internal/nn ./internal/core ./internal/serve ./internal/wire ./cmd/napmon-serve

## test-fuzz: smoke-run the fuzz targets (differential BDD fuzzer against
## a truth-table oracle; learn streams through the zone overlay against
## brute-force Hamming distance; pattern wire-format round trip; binary protocol
## frame round trip + arbitrary-bytes decoder safety; the snapshot and
## delta-stream decoders, raw and re-checksummed). Each target gets a
## short budget — CI runs this on every PR; leave a fuzzer running with
## a long -fuzztime to actually hunt.
FUZZTIME ?= 15s
test-fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzBDDOps$$' -fuzztime $(FUZZTIME) ./internal/bdd
	$(GO) test -run '^$$' -fuzz '^FuzzZoneLearnStream$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPatternRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDeltaStream$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire

## cover: run the full test suite with coverage and print the total
COVER_PROFILE ?= coverage.out
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) -covermode=atomic ./...
	$(GO) tool cover -func=$(COVER_PROFILE) | tail -1

## cover-check: fail if total statement coverage drops below the recorded
## baseline in ci/coverage-baseline.txt (a single number, in percent; the
## baseline carries a little slack below the measured total so unrelated
## PRs don't flake, while a real test-coverage regression still fails)
cover-check: cover
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	floor=$$(cat ci/coverage-baseline.txt); \
	echo "total coverage $$total% (baseline floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || { \
		echo "coverage $$total% fell below the recorded baseline $$floor%"; exit 1; }

## bench-verdicts: bench/'s output checks on all five workloads, untimed — fails only on an output off its oracle, an error frame or a missing reply
bench-verdicts:
	for w in offline_batch stream_open fleet_tiny zone_query zone_learn_mix; do bash bench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 || exit 1; done

## latency-budget: the per-layer peel of a verdict from the traced wire workloads — EXPERIMENTS.md's "Latency budget" table is this output
latency-budget:
	@echo "commit $$(git rev-parse --short HEAD)"
	@for w in fleet_tiny stream_open; do bash bench/run.sh --workload $$w --seed 1 --seconds 10 --trace 1 | grep -E '^env |^peel |^  [a-z]+ +self '; done

## smoke: the end-to-end gate on the built binaries: one build, two
## boots of napmon-serve against a tiny self-trained model.
## 1. The wire TCP listener and -leak-check: /healthz, one /v1 watch,
##    a strict zero-loss TCP soak (napmon-soak; the server-vs-client
##    accounting is diffed against /metrics; reports soak-tcp.json),
##    napmon-metricslint (the /metrics exposition parses,
##    carries the required series and agrees with /v1 stats), /v1 stats
##    and model list, SIGTERM drain.
## 2. Wire TCP behind the seeded chaos listener (resets, stalls,
##    corruption, partial writes, accept failures; a bounded budget):
##    napmon-soak -reconnect -chaos-check must get verdicts, decode every
##    response and never receive more than the server served
##    (chaos-soak.json). CHAOS_SEED is echoed on failure; the same value
##    replays the same faults.
## Each drain must pass -leak-check. Replication, with and without an
## injected-fault leader client, is checked in process by
## TestFleetFollowerConverges and TestChaosFollowerConverges
## (cmd/napmon-serve), so every `go test ./...` runs it.
SMOKE_ADDR ?= 127.0.0.1:8841
SMOKE_TCP ?= 127.0.0.1:9711
SOAK_DURATION ?= 10s
CHAOS_SEED ?= 1
smoke:
	$(GO) build -o bin/ ./cmd/napmon-serve ./cmd/napmon-soak ./cmd/napmon-metricslint
	@set -e; \
	fail() { echo "smoke: $$1"; exit 1; }; \
	soak="bin/napmon-soak -duration $(SOAK_DURATION) -connect-timeout 120s -metrics http://$(SMOKE_ADDR)/metrics"; \
	bin/napmon-serve -selftrain 0.05 -addr $(SMOKE_ADDR) -tcp $(SMOKE_TCP) -leak-check & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 600); do curl -sf http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -sf http://$(SMOKE_ADDR)/healthz || fail "daemon never came up"; \
	awk 'BEGIN{printf "{\"shape\":[1,28,28],\"input\":["; for(i=0;i<784;i++) printf "%s0.1",(i?",":""); print "]}"}' \
		| curl -sf -X POST --data-binary @- http://$(SMOKE_ADDR)/v1/models/default/watch; \
	$$soak -addr $(SMOKE_TCP) -strict -o soak-tcp.json; \
	bin/napmon-metricslint -url http://$(SMOKE_ADDR)/metrics \
		-stats-url http://$(SMOKE_ADDR)/v1/models/default/stats \
		-require napmon_requests_submitted_total,napmon_requests_served_total,napmon_stage_duration_seconds,napmon_batch_size,napmon_watched_total,napmon_oop_total,napmon_unmonitored_total,napmon_gamma_level,napmon_epoch,napmon_epoch_swaps_total,napmon_zone_plans_recompiled_total,napmon_zone_overlay_patterns,napmon_bdd_nodes,napmon_bdd_cache_hits_total,napmon_inference_seconds_total,napmon_zone_query_seconds_total,napmon_registry_tenants,napmon_tenant_up; \
	curl -sf http://$(SMOKE_ADDR)/v1/models/default/stats; \
	curl -sf http://$(SMOKE_ADDR)/v1/models; \
	kill -TERM $$pid; wait $$pid || fail "drain or goroutine leak check failed"; \
	bin/napmon-serve -selftrain 0.05 -addr $(SMOKE_ADDR) -tcp $(SMOKE_TCP) \
		-chaos-seed $(CHAOS_SEED) -chaos-faults 40 -leak-check & pid=$$!; \
	$$soak -addr $(SMOKE_TCP) -reconnect -chaos-check -o chaos-soak.json \
		|| fail "chaos soak invariants failed (CHAOS_SEED=$(CHAOS_SEED) replays this fault sequence)"; \
	kill -TERM $$pid; wait $$pid || fail "chaos drain or goroutine leak check failed (CHAOS_SEED=$(CHAOS_SEED))"; \
	trap - EXIT

## fmt: fail if any file needs gofmt
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet: static analysis
vet:
	$(GO) vet ./...

## lint: vet plus staticcheck (CI installs staticcheck; locally the step
## is skipped with a notice when the binary is absent, so `make ci` works
## on minimal machines)
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it — 'go install honnef.co/go/tools/cmd/staticcheck@latest')"; \
	fi

## clean: remove local build/test artifacts (compiled test binaries,
## coverage profiles, the bin/ tool directory, bench/'s build cache and
## traces) — everything .gitignore hides from git but that still clutters
## the working tree
clean:
	rm -f ./*.test ./*.prof ./*.out coverage.out soak-*.json chaos-soak.json
	rm -rf bin .bench_build bench/out

## ci: everything the pipeline's verify job runs, in the same order
ci: fmt lint build cross race test-split
