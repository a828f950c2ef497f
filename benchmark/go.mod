// The benchmark is a module of its own so that the engine's own
// `go build ./... && go test ./...` never compiles or runs it; it reaches the
// engine's packages through the replace directive below.
module perm/benchmark

go 1.24

require perm v0.0.0

replace perm => ../
