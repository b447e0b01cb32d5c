// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never depends on it; it reaches the
// code under test through the replace below.
module graphabcd/bench

go 1.24

require graphabcd v0.0.0

replace graphabcd => ../
