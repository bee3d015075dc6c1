//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so every LZO block pays for a fresh deflater and the write
// path's tests run an order of magnitude slower.
const raceEnabled = true
