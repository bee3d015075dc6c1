package controlplane

import (
	"fmt"
	"sort"
	"sync"
)

// FleetPatcher rolls engine versions across a fleet of clusters under §5's
// two-version rule: "At any point, a customer will only be on one of two
// patch versions, greatly improving our ability to reproduce and diagnose
// issues." Failed patches roll back automatically (the Ops.Patch path), so
// stragglers stay on the previous version until retried.
type FleetPatcher struct {
	ops *Ops

	mu       sync.Mutex
	versions map[string]int
}

// NewFleetPatcher wires a patcher to the workflow engine.
func NewFleetPatcher(ops *Ops) *FleetPatcher {
	return &FleetPatcher{ops: ops, versions: map[string]int{}}
}

// Register adds a cluster at a version (provisioning installs the current
// fleet version).
func (f *FleetPatcher) Register(cluster string, version int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.versions[cluster] = version
}

// Versions returns the distinct engine versions currently in the fleet,
// ascending.
func (f *FleetPatcher) Versions() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := map[int]bool{}
	var out []int
	for _, v := range f.versions {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// WaveResult reports one rollout wave.
type WaveResult struct {
	Version    int
	Patched    []string
	RolledBack []string
}

// RollOut patches every cluster below newVersion to newVersion, cluster by
// cluster, with automatic rollback on telemetry regression. It refuses any
// rollout that would put a third version in the fleet: newVersion must be
// exactly max(current)+1, and every cluster must already be within one
// version of it.
func (f *FleetPatcher) RollOut(newVersion int, nodesOf func(cluster string) int, telemetryOK func(cluster string) bool) (WaveResult, error) {
	res := WaveResult{Version: newVersion}
	f.mu.Lock()
	if len(f.versions) == 0 {
		f.mu.Unlock()
		return res, fmt.Errorf("controlplane: empty fleet")
	}
	min, max := 1<<62, -(1 << 62)
	for _, v := range f.versions {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if newVersion != max+1 {
		f.mu.Unlock()
		return res, fmt.Errorf("controlplane: rollout must target version %d, got %d", max+1, newVersion)
	}
	if min < max {
		f.mu.Unlock()
		return res, fmt.Errorf(
			"controlplane: two-version rule: clusters still on version %d must reach %d before %d ships",
			min, max, newVersion)
	}
	targets := make([]string, 0, len(f.versions))
	for c := range f.versions {
		targets = append(targets, c)
	}
	f.mu.Unlock()
	f.wave(&res, targets, nodesOf, telemetryOK)
	return res, nil
}

// wave patches targets to res.Version in sorted (deterministic) order, one
// cluster at a time. A patch that rolls back leaves its cluster on the old
// version — the fleet then legally spans two versions.
func (f *FleetPatcher) wave(res *WaveResult, targets []string, nodesOf func(cluster string) int, telemetryOK func(cluster string) bool) {
	sort.Strings(targets)
	for _, c := range targets {
		nodes := 2
		if nodesOf != nil {
			nodes = nodesOf(c)
		}
		var ok func() bool
		if telemetryOK != nil {
			cl := c
			ok = func() bool { return telemetryOK(cl) }
		}
		_, err := f.ops.Patch(nodes, ok)
		f.mu.Lock()
		if err != nil {
			res.RolledBack = append(res.RolledBack, c)
		} else {
			f.versions[c] = res.Version
			res.Patched = append(res.Patched, c)
		}
		f.mu.Unlock()
	}
}

// RetryStragglers re-patches the clusters still below the fleet maximum —
// what must converge before the next rollout may ship.
func (f *FleetPatcher) RetryStragglers(nodesOf func(cluster string) int, telemetryOK func(cluster string) bool) (WaveResult, error) {
	f.mu.Lock()
	max := -(1 << 62)
	for _, v := range f.versions {
		if v > max {
			max = v
		}
	}
	var stragglers []string
	for c, v := range f.versions {
		if v < max {
			stragglers = append(stragglers, c)
		}
	}
	f.mu.Unlock()

	res := WaveResult{Version: max}
	f.wave(&res, stragglers, nodesOf, telemetryOK)
	return res, nil
}
