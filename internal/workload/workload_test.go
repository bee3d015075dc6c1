package workload

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

func testWorkload(seed int64) Workload {
	return Workload{
		Seed:     seed,
		Duration: 3 * time.Second,
		Scale:    1,
		Tenants: []TenantSpec{
			{Name: "wallboard", Archetype: Dashboard, Queue: "dash", Rate: 30, Burstiness: 0.3, BurstSize: 5, Repeat: 0.6, Sessions: 3},
			{Name: "nightly-etl", Archetype: ETL, Queue: "etl", Rate: 8, Sessions: 2},
			{Name: "analyst", Archetype: AdHoc, Rate: 4, Repeat: 0.2, Sessions: 1},
		},
	}
}

// TestSynthesizeDeterministic is the reproducibility contract: the same
// seed renders a byte-identical statement stream — every offset, every
// parameter, every setup row — so a QoS regression seen in CI replays
// exactly on a laptop.
func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(testWorkload(42)).Render()
	for i := 0; i < 3; i++ {
		if b := Synthesize(testWorkload(42)).Render(); b != a {
			t.Fatalf("run %d: same seed rendered a different stream", i)
		}
	}
	if b := Synthesize(testWorkload(43)).Render(); b == a {
		t.Fatal("different seeds rendered identical streams")
	}
	// The stream's digest: a generator change that moves a byte, or
	// reorders an RNG draw, fails here rather than in a QoS replay.
	const want = "b88ba76c4a6100aabdc73ee3fa0a61ae8084c8b685e66268ebe6676911bfd2fb"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(a))); got != want {
		t.Fatalf("seed 42 stream digest = %s, want %s", got, want)
	}
}

// TestSynthesizeSeedIndependentPerTenant proves tenants draw from
// independent subseeds: adding a tenant must not perturb the other
// tenants' statements (their generators would otherwise share one PRNG
// stream and every mix change would invalidate pinned baselines).
func TestSynthesizeSeedIndependentPerTenant(t *testing.T) {
	render := func(w Workload) map[string][]string {
		out := map[string][]string{}
		for _, e := range Synthesize(w).Events {
			out[e.Tenant] = append(out[e.Tenant], e.Offset.String()+" "+e.SQL)
		}
		return out
	}
	base := testWorkload(42)
	grown := testWorkload(42)
	grown.Tenants = append(grown.Tenants, TenantSpec{Name: "extra", Archetype: AdHoc, Rate: 10})
	a, b := render(base), render(grown)
	for _, tn := range base.Tenants {
		if strings.Join(a[tn.Name], "\n") != strings.Join(b[tn.Name], "\n") {
			t.Errorf("tenant %s stream changed when an unrelated tenant was added", tn.Name)
		}
	}
	if len(b["extra"]) == 0 {
		t.Error("added tenant synthesized nothing")
	}
}

// TestSynthesizeShape sanity-checks the trace: events are offset-sorted,
// bounded by the horizon, every tenant contributes, and the archetypes emit
// their signature statement kinds.
func TestSynthesizeShape(t *testing.T) {
	w := testWorkload(7)
	s := Synthesize(w)
	if len(s.Setup) == 0 {
		t.Fatal("no setup statements")
	}
	if !sort.SliceIsSorted(s.Events, func(i, j int) bool {
		return s.Events[i].Offset < s.Events[j].Offset
	}) {
		t.Error("events not sorted by offset")
	}
	kinds := map[string]map[string]int{}
	for _, e := range s.Events {
		if e.Offset < 0 || e.Offset > w.Duration {
			t.Fatalf("event offset %v outside horizon %v", e.Offset, w.Duration)
		}
		if kinds[e.Tenant] == nil {
			kinds[e.Tenant] = map[string]int{}
		}
		kinds[e.Tenant][e.Kind]++
	}
	if kinds["wallboard"][KindShort] == 0 {
		t.Error("dashboard tenant emitted no short queries")
	}
	for _, k := range []string{KindWrite, KindTransform, KindMaintenance} {
		if kinds["nightly-etl"][k] == 0 {
			t.Errorf("ETL tenant emitted no %s statements", k)
		}
	}
	if kinds["analyst"][KindAdHoc] == 0 {
		t.Error("ad-hoc tenant emitted no analyst queries")
	}
}

// TestDashboardRepeatRate proves Repeat produces actual statement reuse —
// the property that makes dashboard traffic result-cache friendly.
func TestDashboardRepeatRate(t *testing.T) {
	w := Workload{
		Seed:     11,
		Duration: 5 * time.Second,
		Tenants: []TenantSpec{
			{Name: "d", Archetype: Dashboard, Rate: 50, Repeat: 0.8},
		},
	}
	s := Synthesize(w)
	seen := map[string]bool{}
	repeats := 0
	for _, e := range s.Events {
		if seen[e.SQL] {
			repeats++
		}
		seen[e.SQL] = true
	}
	if n := len(s.Events); n < 100 {
		t.Fatalf("only %d events synthesized", n)
	}
	if frac := float64(repeats) / float64(len(s.Events)); frac < 0.5 {
		t.Errorf("repeat fraction %.2f, want ≥ 0.5 at Repeat 0.8", frac)
	}
}
