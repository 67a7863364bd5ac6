#!/bin/sh
# check.sh — the repository's verification gate, run by `make check` and
# CI: compile everything, vet, check formatting, then the full test
# suite under the race detector (the service worker pool is exercised
# concurrently).
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# gofmt over every tracked Go file, so the separate bench/ module is
# covered too; any file it lists fails the gate.
echo "== gofmt -l"
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:"
    echo "$unformatted"
    exit 1
fi

# staticcheck is optional locally (CI installs it); the gate still
# passes on machines without the binary rather than forcing a download.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck: not installed, skipping (CI runs it)"
fi

# govulncheck is gated the same way: run it when the binary is present,
# skip (loudly) when it is not, so air-gapped machines still pass.
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck ./..."
    govulncheck ./...
else
    echo "== govulncheck: not installed, skipping (CI runs it)"
fi

echo "== go test -race ./..."
go test -race ./...

# bench/ is its own Go module (it replaces sigkern with ../), so the
# root ./... patterns never compile it; vet and test it explicitly so a
# change to the svc API it calls cannot slip through.
echo "== bench: go vet ./... && go test -short ./..."
(cd bench && go vet ./... && go test -short ./...)

echo "== dse-smoke"
./scripts/dse_smoke.sh

echo "check: OK"
