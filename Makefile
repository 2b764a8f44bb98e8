# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench diffcheck experiments experiments-quick examples serve smoke cluster-smoke delta-smoke canary-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Differential/metamorphic battery: 500 seeded random cases checked
# against every oracle, failures shrunk to replayable repro artifacts
# under diffcheck-artifacts/ (see README "Correctness").
diffcheck:
	$(GO) run ./cmd/diffcheck -cases 500 -seed 1

# Regenerate every EXPERIMENTS.md table (minutes).
experiments:
	$(GO) run ./cmd/experiments

# Smoke-scale sweep (seconds).
experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Run the detection-job daemon on the default port (see README "Serving").
serve:
	$(GO) run ./cmd/subgraphd

# End-to-end daemon smoke: selfcheck + queue saturation + SIGTERM drain.
smoke:
	./scripts/smoke_subgraphd.sh

# End-to-end cluster smoke: router + 2 workers, selfcheck through the
# router, a curl job burst with one worker SIGKILLed mid-run, clean drains.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster
	./scripts/smoke_cluster.sh

# End-to-end evolving-graph smoke: race-test the delta paths, then drive
# the real binary through upload → watched deltas → forwarded-cache count
# job → 409 conflict → clean drain (see README "Evolving graphs").
delta-smoke:
	$(GO) test -race -count=1 ./internal/graph ./internal/kernel ./internal/serve
	./scripts/delta_smoke.sh

# Quick local version of CI's canary-smoke gate: the robustness packages
# under -race, including TestChaosCanaryAcceptance (chaos injection, SLO
# shedding and a full-fraction canary over a 200-job burst).
canary-smoke:
	$(GO) test -race -count=1 ./internal/obs ./internal/canary ./internal/serve

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/disjointness
	$(GO) run ./examples/foolingviews
	$(GO) run ./examples/cliquelisting
	$(GO) run ./examples/cycledetect

clean:
	$(GO) clean ./...
