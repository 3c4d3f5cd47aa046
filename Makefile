# Convenience targets; everything is plain go tooling underneath.

.PHONY: build test vet bench race simulate-smoke docs-check

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

# Time-compressed simulation smoke: six simulated hours with a burst storm
# and a drift injection, artifacts under /tmp/seagull-sim (also runs in CI).
simulate-smoke:
	go run ./cmd/seagull-simulate -scenario smoke -out /tmp/seagull-sim -quiet

# Markdown hygiene: relative links in *.md must resolve (also runs in CI).
docs-check:
	go test -run TestMarkdownLinks .
	go build ./examples/...
