// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` never depends on it. Its path sits under
// `ras/`, which is what lets it import `ras/internal/...`.
module ras/benchmark

go 1.22

require ras v0.0.0

replace ras => ../
