# Convenience targets for the multihit reproduction.

GO ?= go

.PHONY: all build vet lint test race benchfull reports reports-check examples faults chaos chaos-soak kernel-smoke kernel-bench sparse-smoke sparse-bench serve-smoke clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-aware static analysis (see docs/INVARIANTS.md).
lint:
	$(GO) run ./cmd/multihitvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full Go benchmark suite across every package.
benchfull:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every figure/table of EXPERIMENTS.md into reports/.
reports:
	$(GO) run ./cmd/benchreport -exp all -out reports

# The performance-model reports are pure functions of the model (no wall
# clock), so they must regenerate byte for byte; any difference is a
# change in the model. The wall-clock experiments (fig5, sparse, ...)
# are left out. Writes under $RUNNER_TEMP on CI, a fresh temp dir elsewhere.
MODEL_REPORTS = fig2,fig3,fig4a,fig4b,edvea,fig6,fig7,fig8,speedup,memory,latency,iterations,campaign,hardware,schemes

reports-check:
	@out="$${RUNNER_TEMP:-$$(mktemp -d)}/reports"; \
	$(GO) run ./cmd/benchreport -exp $(MODEL_REPORTS) -out "$$out" > /dev/null || exit 1; \
	for e in $$(echo $(MODEL_REPORTS) | tr , ' '); do \
		cmp "$$out/$$e.txt" "reports/$$e.txt" || exit 1; \
	done; \
	echo "reports-check: $(MODEL_REPORTS) identical to reports/"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/brca4hit
	$(GO) run ./examples/scalingstudy
	$(GO) run ./examples/panelclassifier
	$(GO) run ./examples/mutationlevel
	$(GO) run ./examples/maffiles

# Seeded fault-injection campaign on a small fixture (see docs/FAULTS.md).
faults:
	$(GO) run ./cmd/simscale -mode campaign -nodes 8 -faults -fault-policy restart \
		-fault-seed 1 -fault-mtbf-hours 24 -fault-stragglers 0.02 -checkpoint-every 3

# Real fault injection: crash-resume property tests, failpoint scenarios,
# corruption fallback, and quarantine paths under the race detector
# (see docs/ROBUSTNESS.md).
chaos:
	$(GO) test -race -count=1 ./internal/harness ./internal/failpoint ./internal/ckptstore

# End-to-end resilience soak (docs/RESILIENCE.md §5): run the real daemon
# under seeded randomized failpoint schedules, SIGKILL it mid-job, drive
# it with the retrying client, and require no job lost, no idempotency
# key executed twice, bit-identical results, and a store within budget.
# CI runs 8 rounds with the race detector; `go run ./cmd/chaossoak
# -rounds 25` is the longer local campaign.
chaos-soak:
	$(GO) build -race -o /tmp/chaossoak ./cmd/chaossoak
	/tmp/chaossoak -rounds 8 -seed 1

# Kernelization differential tests (docs/KERNELIZATION.md): kernelized =
# unkernelized = exhaustive winners, counts, and crash-resume across the
# engine, the supervised runner, and the distributed driver.
kernel-smoke:
	$(GO) test -count=1 -run 'Kernel' ./internal/kernelize ./internal/cover ./internal/harness ./internal/cluster

# Before/after wall-clock of Options.Kernelize on seeded cohorts,
# recorded in BENCH_7.json (see EXPERIMENTS.md E21).
kernel-bench:
	$(GO) run ./cmd/benchreport -exp kernel -benchout BENCH_7.json

# Sparse-engine differential suite under the race detector (docs/SPARSE.md):
# sparse = dense = exhaustive winners, byte-identical checkpoints, engine
# validation and the intersection fuzz corpus — then a quick dense-vs-sparse
# baseline run to prove the kernels still measure.
sparse-smoke:
	$(GO) test -race -count=1 -run 'Sparse|Engine|Intersect|Gallop' ./internal/sparsemat ./internal/cover ./internal/service
	$(GO) run ./cmd/benchreport -exp sparse -quick

# Full dense-vs-sparse-vs-auto engine baselines per cohort/scheme,
# recorded in BENCH_9.json (see EXPERIMENTS.md E22).
sparse-bench:
	$(GO) run ./cmd/benchreport -exp sparse -benchout BENCH_9.json

# Process-level discovery-service smoke test (docs/SERVICE.md): build the
# real multihitd binary, submit a job over HTTP, SIGKILL the daemon
# mid-job, restart it on the same data directory, and require the resumed
# result bit-identical to an uninterrupted run plus a cache hit on
# resubmission.
serve-smoke:
	$(GO) test -count=1 -v -run TestServeSmoke ./cmd/multihitd

clean:
	$(GO) clean ./...
