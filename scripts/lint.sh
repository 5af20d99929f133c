#!/usr/bin/env sh
# Run the repo's full lint gate locally — the same checks CI enforces
# (see .github/workflows/ci.yml). staticcheck and govulncheck are
# skipped gracefully when not installed; everything else is stdlib-only.
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	exit 1
fi

echo "==> go vet"
go vet ./...
# The scalar fallback where internal/nn's .s file does not build.
GOARCH=arm64 go vet ./internal/nn ./internal/classifier
GOARCH=arm64 go build ./...

echo "==> driftlint"
go run ./cmd/driftlint -timing ./...

echo "==> driftlint (self-check)"
go run ./cmd/driftlint ./internal/analysis/...

if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck"
	staticcheck ./...
else
	echo "==> staticcheck not installed; skipping (CI runs it)"
fi

if command -v govulncheck >/dev/null 2>&1; then
	echo "==> govulncheck"
	govulncheck ./...
else
	echo "==> govulncheck not installed; skipping (CI runs it)"
fi

echo "lint OK"
