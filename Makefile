# Convenience targets; everything is plain go tooling underneath.

.PHONY: build test vet bench bench-json bench-compare race simulate-smoke docs-check

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -run '^$$' -bench . -benchmem .

# Full check + re-record the one committed baseline (see cmd/seagull-bench);
# do this in the PR that retires, renames or deliberately moves a benchmark.
bench-json:
	go run ./cmd/seagull-bench -out BENCH.json

# Diff a fresh run against the committed snapshot; fails on >10% allocs/op
# regression (the CI gate).
bench-compare:
	go run ./cmd/seagull-bench -out /tmp/bench-now.json -compare BENCH.json

# Time-compressed simulation smoke: six simulated hours with a burst storm
# and a drift injection, artifacts under /tmp/seagull-sim (also runs in CI).
simulate-smoke:
	go run ./cmd/seagull-simulate -scenario smoke -out /tmp/seagull-sim -quiet

# Markdown hygiene: relative links in *.md must resolve (also runs in CI).
docs-check:
	go test -run TestMarkdownLinks .
	go build ./examples/...
