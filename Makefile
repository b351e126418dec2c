# BG3 reproduction — common targets.

GO ?= go

.PHONY: all build test race bench microbench repro examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo's benchmark (BENCHMARK.json): five steady-state workloads,
# six gated end-to-end metrics and the per-layer trace; see
# benchmark/README.md for collect/compare.
bench:
	bash benchmark/run.sh

# One benchmark per paper table/figure, plus ablations and micro-benches.
microbench:
	$(GO) test -bench=. -benchmem ./...

# Full paper-style reproduction tables (see EXPERIMENTS.md).
repro:
	$(GO) run ./cmd/bg3-bench -scale medium

repro-quick:
	$(GO) run ./cmd/bg3-bench -scale small

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/douyinfollow
	$(GO) run ./examples/recommendation
	$(GO) run ./examples/riskcontrol
	$(GO) run ./examples/ttlwindow

clean:
	$(GO) clean ./...
