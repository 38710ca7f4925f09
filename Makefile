# Local invocations mirror .github/workflows/ci.yml exactly: CI calls these
# same targets, so a green `make ci` locally means a green pipeline. CI
# gates every PR on: gofmt, vet + staticcheck (lint), build, the arm64
# vet and test builds (cross), race tests and the 1–4-worker split rerun
# of the kernel, monitor, serve and wire suites (test-split) across a Go
# version matrix,
# plus a fuzz-smoke job (test-fuzz), a
# coverage gate (cover-check against ci/coverage-baseline.txt), a
# serve-demo end-to-end daemon smoke job, a metrics-smoke observability
# gate (/metrics exposition validated and cross-checked against the /v1
# stats), a soak-smoke wire-protocol gate (strict zero-loss UDP+TCP soak
# with server-vs-client accounting, then bench-verdicts: every output of
# bench/'s five workloads checked against its oracle, no time gated), a
# fleet-smoke replication gate (leader with two self-trained tenants,
# snapshot-bootstrapped follower, streamed learn deltas, epoch-equality
# convergence with per-tenant metrics asserted on both daemons) and a
# chaos-smoke resilience gate (seeded fault injection against the TCP
# wire listener and the replication follower; see the chaos-smoke target).
# Performance is measured by bench/ alone (BENCHMARK.json, bench/README.md).

GO ?= go
# WATCH_BODY prints one all-0.1 MNIST-shaped watch request (the smokes pipe it to curl)
WATCH_BODY = awk 'BEGIN{printf "{\"shape\":[1,28,28],\"input\":["; for(i=0;i<784;i++) printf "%s0.1",(i?",":""); print "]}"}'

.PHONY: build cross test race test-split test-fuzz cover cover-check bench-verdicts latency-budget serve-demo soak-smoke metrics-smoke fleet-smoke chaos-smoke fmt vet lint ci clean

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
## its whole batch before the writer runs.
test-split:
	$(GO) test -count=1 -run '^TestKernelLevel$$' -v ./internal/tensor
	$(GO) test -cpu 1,2,3,4 ./internal/tensor ./internal/nn ./internal/core ./internal/serve ./internal/wire

## test-fuzz: smoke-run the fuzz targets (differential BDD fuzzer against
## a truth-table oracle; pattern wire-format round trip; binary protocol
## frame round trip + arbitrary-bytes decoder safety; the snapshot and
## delta-stream decoders, raw and re-checksummed). Each target gets a
## short budget — CI runs this on every PR; leave a fuzzer running with
## a long -fuzztime to actually hunt.
FUZZTIME ?= 15s
test-fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzBDDOps$$' -fuzztime $(FUZZTIME) ./internal/bdd
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

## serve-demo: start napmon-serve (HTTP + wire TCP over one registry)
## against a tiny self-trained model, probe /healthz, POST one /v1 watch,
## assert the removed POST /watch alias answers 404, ping/watch the same
## process over the wire with a 1s strict napmon-soak (accounting checked
## against /metrics), read /v1 stats, and drain gracefully on SIGTERM
SERVE_DEMO_ADDR ?= 127.0.0.1:8841
SERVE_DEMO_TCP ?= 127.0.0.1:8840
serve-demo:
	$(GO) build -o bin/napmon-serve ./cmd/napmon-serve
	$(GO) build -o bin/napmon-soak ./cmd/napmon-soak
	@set -e; \
	bin/napmon-serve -selftrain 0.05 -addr $(SERVE_DEMO_ADDR) -tcp $(SERVE_DEMO_TCP) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 150); do \
		curl -sf http://$(SERVE_DEMO_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://$(SERVE_DEMO_ADDR)/healthz; \
	$(WATCH_BODY) | curl -sf -X POST --data-binary @- http://$(SERVE_DEMO_ADDR)/v1/models/default/watch; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{}' http://$(SERVE_DEMO_ADDR)/watch); \
	test "$$code" = 404 || { echo "serve-demo: POST /watch answered $$code, want 404"; exit 1; }; \
	bin/napmon-soak -addr $(SERVE_DEMO_TCP) -proto tcp -duration 1s -strict -metrics http://$(SERVE_DEMO_ADDR)/metrics >/dev/null; \
	curl -sf http://$(SERVE_DEMO_ADDR)/v1/models/default/stats; \
	curl -sf http://$(SERVE_DEMO_ADDR)/v1/models; \
	kill -TERM $$pid; wait $$pid; trap - EXIT

## soak-smoke: start napmon-serve with both wire transports against a
## tiny self-trained model and drive it with cmd/napmon-soak over BOTH
## (closed loop, -strict: a single dropped, malformed or error frame
## fails the target). The daemon's /metrics (on -addr) is scraped before
## and after each soak so the server-vs-client accounting diff is part of the
## gate: requests the server counts as served must equal the responses
## the soak received. Writes soak-udp.json / soak-tcp.json reports — the
## artifacts the CI soak-smoke job uploads. SOAK_DURATION scales the run
## (CI uses ~10s per transport).
SOAK_UDP ?= 127.0.0.1:9710
SOAK_TCP ?= 127.0.0.1:9711
SOAK_ADDR ?= 127.0.0.1:9712
SOAK_DURATION ?= 10s
soak-smoke:
	$(GO) build -o bin/napmon-serve ./cmd/napmon-serve
	$(GO) build -o bin/napmon-soak ./cmd/napmon-soak
	@set -e; \
	bin/napmon-serve -selftrain 0.05 -udp $(SOAK_UDP) -tcp $(SOAK_TCP) -addr $(SOAK_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	bin/napmon-soak -addr $(SOAK_UDP) -proto udp -duration $(SOAK_DURATION) -strict -o soak-udp.json -connect-timeout 120s -metrics http://$(SOAK_ADDR)/metrics; \
	bin/napmon-soak -addr $(SOAK_TCP) -proto tcp -duration $(SOAK_DURATION) -strict -o soak-tcp.json -connect-timeout 120s -metrics http://$(SOAK_ADDR)/metrics; \
	kill -TERM $$pid; wait $$pid; trap - EXIT

## metrics-smoke: start napmon-serve against a tiny self-trained model,
## drive a few /watch requests, then validate GET /metrics end to end
## with cmd/napmon-metricslint: the exposition must parse under the
## strict internal grammar, carry the core serve/monitor/epoch/BDD
## series, and agree with the /stats JSON on the shared counters. CI
## runs this as the metrics-smoke job.
METRICS_DEMO_ADDR ?= 127.0.0.1:8842
metrics-smoke:
	$(GO) build -o bin/napmon-serve ./cmd/napmon-serve
	$(GO) build -o bin/napmon-metricslint ./cmd/napmon-metricslint
	@set -e; \
	bin/napmon-serve -selftrain 0.05 -addr $(METRICS_DEMO_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 150); do \
		curl -sf http://$(METRICS_DEMO_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://$(METRICS_DEMO_ADDR)/healthz; \
	for i in 1 2 3 4 5; do \
		$(WATCH_BODY) | curl -sf -X POST --data-binary @- http://$(METRICS_DEMO_ADDR)/v1/models/default/watch >/dev/null; \
	done; \
	bin/napmon-metricslint -url http://$(METRICS_DEMO_ADDR)/metrics \
		-stats-url http://$(METRICS_DEMO_ADDR)/v1/models/default/stats \
		-require napmon_requests_submitted_total,napmon_requests_served_total,napmon_stage_duration_seconds,napmon_batch_size,napmon_watched_total,napmon_oop_total,napmon_unmonitored_total,napmon_gamma_level,napmon_epoch,napmon_epoch_swaps_total,napmon_zone_plans_recompiled_total,napmon_bdd_nodes,napmon_bdd_cache_hits_total,napmon_inference_seconds_total,napmon_zone_query_seconds_total,napmon_registry_tenants,napmon_tenant_up,napmon_tenant_served_total; \
	kill -TERM $$pid; wait $$pid; trap - EXIT

## fleet-smoke: end-to-end multi-tenant replication gate. A leader
## napmon-serve self-trains the default tenant, hot-loads a second
## tenant over PUT /v1/models/alpha, and a follower napmon-serve
## -follow bootstraps both tenants from compact snapshots. The smoke
## then streams 20 /learn epoch deltas into the leader's alpha tenant
## and polls until the follower's epoch equals the leader's (the
## replication protocol converges bit-for-bit; epoch equality is the
## observable half, the bit-for-bit half is pinned by the registry and
## core test suites). Finally both daemons' /metrics must expose the
## per-tenant napmon_tenant_* series for every loaded tenant.
FLEET_LEADER ?= 127.0.0.1:8843
FLEET_FOLLOWER ?= 127.0.0.1:8844
fleet-smoke:
	$(GO) build -o bin/napmon-serve ./cmd/napmon-serve
	@set -e; \
	bin/napmon-serve -selftrain 0.03 -addr $(FLEET_LEADER) & lpid=$$!; \
	trap 'kill $$lpid $$fpid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 150); do \
		curl -sf http://$(FLEET_LEADER)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://$(FLEET_LEADER)/healthz >/dev/null; \
	echo "fleet-smoke: loading tenant alpha on the leader"; \
	curl -sf -X PUT http://$(FLEET_LEADER)/v1/models/alpha \
		-d '{"selftrain":0.03,"seed":7}' >/dev/null; \
	bin/napmon-serve -follow http://$(FLEET_LEADER) -follow-poll 200ms \
		-addr $(FLEET_FOLLOWER) & fpid=$$!; \
	for i in $$(seq 1 150); do \
		curl -sf http://$(FLEET_FOLLOWER)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://$(FLEET_FOLLOWER)/healthz >/dev/null; \
	verdict=$$($(WATCH_BODY) | curl -sf -X POST --data-binary @- http://$(FLEET_LEADER)/v1/models/alpha/watch); \
	pat=$$(echo "$$verdict" | sed -n 's/.*"pattern": "\([01]*\)".*/\1/p'); \
	cls=$$(echo "$$verdict" | sed -n 's/.*"class": \([0-9]*\).*/\1/p'); \
	test -n "$$pat" || { echo "fleet-smoke: no pattern in watch verdict"; exit 1; }; \
	echo "fleet-smoke: streaming 20 learn deltas into alpha (class $$cls)"; \
	for i in $$(seq 1 20); do \
		flip=$$(echo "$$pat" | awk -v i=$$i '{ c=substr($$0,i,1); \
			printf "%s%s%s", substr($$0,1,i-1), (c=="0"?"1":"0"), substr($$0,i+1) }'); \
		curl -sf -X POST http://$(FLEET_LEADER)/v1/models/alpha/learn \
			-d "{\"class\":$$cls,\"patterns\":[\"$$flip\"]}" >/dev/null; \
	done; \
	le=$$(curl -sf http://$(FLEET_LEADER)/v1/models/alpha/stats | sed -n 's/.*"epoch": \([0-9]*\).*/\1/p'); \
	test "$$le" -gt 1 || { echo "fleet-smoke: leader epoch never advanced ($$le)"; exit 1; }; \
	for i in $$(seq 1 100); do \
		fe=$$(curl -sf http://$(FLEET_FOLLOWER)/v1/models/alpha/stats | sed -n 's/.*"epoch": \([0-9]*\).*/\1/p'); \
		test "$$fe" = "$$le" && break; sleep 0.2; \
	done; \
	test "$$fe" = "$$le" || { echo "fleet-smoke: follower epoch $$fe never converged to leader $$le"; exit 1; }; \
	echo "fleet-smoke: follower converged at epoch $$fe"; \
	for host in $(FLEET_LEADER) $(FLEET_FOLLOWER); do \
		m=$$(curl -sf http://$$host/metrics); \
		for tn in default alpha; do \
			echo "$$m" | grep -q "napmon_tenant_up{tenant=\"$$tn\"} 1" \
				|| { echo "fleet-smoke: $$host missing napmon_tenant_up for $$tn"; exit 1; }; \
			echo "$$m" | grep -q "napmon_tenant_epoch{tenant=\"$$tn\"}" \
				|| { echo "fleet-smoke: $$host missing napmon_tenant_epoch for $$tn"; exit 1; }; \
		done; \
	done; \
	echo "fleet-smoke: per-tenant metrics live on leader and follower"; \
	kill -TERM $$fpid; wait $$fpid; \
	kill -TERM $$lpid; wait $$lpid; trap - EXIT

## chaos-smoke: the fault-injection resilience gate, two halves sharing
## one seed (CHAOS_SEED, echoed on failure — replaying with the same
## value reproduces the same fault sequence).
## 1. Gateway half: napmon-serve serves wire TCP behind a chaos-wrapped
##    listener (resets, stalls, corruption, partial writes, accept
##    failures; the fault budget is bounded so the schedule drains
##    mid-run) while napmon-soak drives it with -reconnect -chaos-check:
##    the run must produce verdicts, every received response must decode
##    to a valid verdict, the client must never receive more verdicts
##    than the server served, and the daemon's -leak-check must find
##    every goroutine gone after the drain. Writes chaos-soak.json —
##    the artifact the CI chaos-smoke job uploads.
## 2. Follower half: a napmon-serve follower replicates from a live
##    leader through a leader client armed by the same -chaos-seed /
##    -chaos-faults pair (resets, 5xx bursts, hangs); learn deltas
##    stream into the leader, and once the fault budget drains the
##    follower's backoff poller must still converge to epoch equality.
CHAOS_SEED ?= 1
CHAOS_TCP ?= 127.0.0.1:9713
CHAOS_ADDR ?= 127.0.0.1:9714
CHAOS_LEADER ?= 127.0.0.1:8845
CHAOS_FOLLOWER ?= 127.0.0.1:8846
CHAOS_DURATION ?= 10s
chaos-smoke:
	$(GO) build -o bin/napmon-soak ./cmd/napmon-soak
	$(GO) build -o bin/napmon-serve ./cmd/napmon-serve
	@set -e; \
	fail() { echo "chaos-smoke: $$1 (CHAOS_SEED=$(CHAOS_SEED) replays this fault sequence)"; exit 1; }; \
	bin/napmon-serve -selftrain 0.05 -tcp $(CHAOS_TCP) -addr $(CHAOS_ADDR) \
		-chaos-seed $(CHAOS_SEED) -chaos-faults 40 -leak-check & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	bin/napmon-soak -addr $(CHAOS_TCP) -proto tcp -duration $(CHAOS_DURATION) \
		-reconnect -chaos-check -o chaos-soak.json -connect-timeout 120s \
		-metrics http://$(CHAOS_ADDR)/metrics \
		|| fail "soak chaos invariants failed"; \
	kill -TERM $$pid; wait $$pid || fail "drain or goroutine leak check failed"; \
	trap - EXIT; \
	bin/napmon-serve -selftrain 0.03 -addr $(CHAOS_LEADER) & lpid=$$!; \
	trap 'kill $$lpid $$fpid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 150); do \
		curl -sf http://$(CHAOS_LEADER)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://$(CHAOS_LEADER)/healthz >/dev/null || fail "leader never came up"; \
	bin/napmon-serve -follow http://$(CHAOS_LEADER) -follow-poll 100ms \
		-chaos-seed $(CHAOS_SEED) -chaos-faults 30 \
		-addr $(CHAOS_FOLLOWER) & fpid=$$!; \
	for i in $$(seq 1 300); do \
		curl -sf http://$(CHAOS_FOLLOWER)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://$(CHAOS_FOLLOWER)/healthz >/dev/null \
		|| fail "follower never bootstrapped through the fault schedule"; \
	verdict=$$($(WATCH_BODY) | curl -sf -X POST --data-binary @- http://$(CHAOS_LEADER)/v1/models/default/watch); \
	pat=$$(echo "$$verdict" | sed -n 's/.*"pattern": "\([01]*\)".*/\1/p'); \
	cls=$$(echo "$$verdict" | sed -n 's/.*"class": \([0-9]*\).*/\1/p'); \
	test -n "$$pat" || fail "no pattern in leader watch verdict"; \
	echo "chaos-smoke: streaming 20 learn deltas into the leader (class $$cls)"; \
	for i in $$(seq 1 20); do \
		flip=$$(echo "$$pat" | awk -v i=$$i '{ c=substr($$0,i,1); \
			printf "%s%s%s", substr($$0,1,i-1), (c=="0"?"1":"0"), substr($$0,i+1) }'); \
		curl -sf -X POST http://$(CHAOS_LEADER)/v1/models/default/learn \
			-d "{\"class\":$$cls,\"patterns\":[\"$$flip\"]}" >/dev/null; \
	done; \
	le=$$(curl -sf http://$(CHAOS_LEADER)/v1/models/default/stats | sed -n 's/.*"epoch": \([0-9]*\).*/\1/p'); \
	test "$$le" -gt 1 || fail "leader epoch never advanced ($$le)"; \
	for i in $$(seq 1 200); do \
		fe=$$(curl -sf http://$(CHAOS_FOLLOWER)/v1/models/default/stats | sed -n 's/.*"epoch": \([0-9]*\).*/\1/p'); \
		test "$$fe" = "$$le" && break; sleep 0.2; \
	done; \
	test "$$fe" = "$$le" || fail "follower epoch $$fe never converged to leader $$le"; \
	echo "chaos-smoke: follower converged at epoch $$fe through injected faults"; \
	kill -TERM $$fpid; wait $$fpid; \
	kill -TERM $$lpid; wait $$lpid; trap - EXIT

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
