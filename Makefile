# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test lint benchmark benchmark-compare bench-micro soak soak-short soak-shard-kill-twin fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static gates: formatting, vet, the lbsvet suite (standalone and as a
# vet tool, so both drivers stay healthy), its fixture self-tests, and —
# when installed, as CI always has them — staticcheck and govulncheck.
# CI's lint job runs exactly this target.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lbsvet ./...
	$(GO) build -o $(LBSVET) ./cmd/lbsvet
	$(GO) vet -vettool=$(LBSVET) ./...
	$(GO) test ./internal/lint/...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "lint: staticcheck not installed, skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "lint: govulncheck not installed, skipping (CI runs it)"; fi

LBSVET ?= /tmp/lbsvet

# The repository benchmark (BENCHMARK.json, benchmark/README.md): every
# workload untraced then traced against the real three-tier stack, ~4 min.
# It is the basis for performance claims; judge two -out files with
# `make benchmark-compare A=parent.json B=change.json` (exit 1 on a metric
# worse than its bound).
benchmark:
	@mkdir -p .bench_build
	$(GO) run ./benchmark -seed 1 -out .bench_build/result.json

benchmark-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

bench-micro:
	$(GO) test -bench=. -benchmem ./...

# Full adversarial soak: every scenario in the catalog at default city
# size, exits non-zero on any SLO violation. ~2 min on a desktop.
soak: build
	$(GO) run ./cmd/lbssoak -seed 1

# The CI soak gate: a reduced city and compressed phase durations, still
# covering an overload-heavy subset end to end (shard_kill runs the
# routed multi-shard database tier).
soak-short: build
	$(GO) run ./cmd/lbssoak -scenarios flash_crowd,db_outage,shard_kill,query_flood \
		-users 8000 -objs 2000 -workers 8 -scale 0.4 -seed 7

# shard_kill's negative twin at soak-short's scale: without admission
# control the routed tier must lose acked updates, so lbssoak must exit
# exactly 1 (an SLO violation, not a harness error). Passing here would
# mean the scenario no longer proves that admission control is
# load-bearing.
# The binary runs directly: `go run` reports every failure as exit 1.
soak-shard-kill-twin:
	$(GO) build -o $(LBSSOAK) ./cmd/lbssoak
	@code=0; $(LBSSOAK) -admission=false -scenarios shard_kill \
		-users 8000 -objs 2000 -workers 8 -scale 0.4 -seed 7 || code=$$?; \
	if [ "$$code" -ne 1 ]; then echo "soak-shard-kill-twin: expected exit 1 (SLO violation), got $$code"; exit 1; fi

LBSSOAK ?= /tmp/lbssoak

# Every fuzz target of every package for a short window each. The list
# comes from the test binaries (`go test -list` prints a package's targets,
# then its "ok <package>" line), so a new target in any package is smoked
# without being named anywhere else; CI's fuzz step runs this target.
fuzz-smoke:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	pairs=$$(echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2 "=" t[i]; n = 0 }'); \
	[ -n "$$pairs" ] || { echo "fuzz-smoke: no fuzz targets listed"; exit 1; }; \
	for pair in $$pairs; do \
		$(GO) test "$${pair%%=*}" -run='^$$' -fuzz="^$${pair#*=}\$$" -fuzztime=10s || exit 1; \
	done
