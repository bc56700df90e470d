# Single-command entry points; CI runs the same steps (see
# .github/workflows/ci.yml and docs/invariants.md).

GOBIN := $(shell go env GOPATH)/bin

# Pinned external linter versions — bump deliberately, with the CI job.
STATICCHECK_VERSION := 2025.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: build test race lint lint-tools vet fmt bench bench-one

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

fmt:
	gofmt -l .

vet:
	go vet ./...

# lint: the blocking static gate. Builds the in-repo invariant suite and
# runs it through go vet's -vettool protocol (results ride the build
# cache), then the analyzer self-tests.
lint:
	go build -o bin/flock-vet ./cmd/flock-vet
	go vet -vettool=$(CURDIR)/bin/flock-vet ./...
	go test ./internal/lint/...

# lint-tools: the pinned external linters. Separate target because they
# need network access to install; CI runs them as their own jobs.
lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	$(GOBIN)/staticcheck ./...
	$(GOBIN)/govulncheck ./...

# bench: the BENCHMARK.json benchmark — builds flock-serve and the harness
# from this checkout and runs all six workloads, window and traced phase
# (several minutes). bench-one runs one workload: make bench-one W=predict_point.
# Extra harness flags ride ARGS, e.g. ARGS="-repeat 5 -out /tmp/change.json";
# compare two reports with: go -C bench run . -compare parent.json change.json
bench:
	bash bench/run.sh $(ARGS)

bench-one:
	bash bench/run.sh -workload $(W) $(ARGS)
