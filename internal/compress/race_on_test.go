//go:build race

package compress

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so pooled state is not reliably warm.
const raceEnabled = true
