//go:build race

package exec

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so pooled batches and probe scratch are allocated again.
const raceEnabled = true
