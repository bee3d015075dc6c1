// Package faults is a deterministic, seedable fault-injection subsystem:
// a registry of named fault *sites* threaded through the storage read
// path, cluster block fetch/replication, the s3 simulator and the
// operator exchange. Each site carries an independent rule (error
// probability, injection budget, latency schedule), all driven by one
// seeded RNG so a chaos run replays bit-identically from its seed — the
// discipline §2.1's failure-masking claims are tested under.
//
// The package also owns the shared retry policy (retry.go): exponential
// backoff with jitter, used by page-fault reads, backup restore and COPY.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"redshift/internal/telemetry"
)

// Site names. Every injection point in the tree uses one of these
// constants, so a fault plan and the stv_faults table speak the same
// vocabulary.
const (
	// SitePrimaryRead fires on a primary (slice-local) block decode —
	// a media error on the node's own disk.
	SitePrimaryRead = "storage.read.primary"
	// SiteSecondaryFetch fires on a page-fault read from the cohort
	// secondary replica.
	SiteSecondaryFetch = "cluster.fetch.secondary"
	// SiteS3Fetch fires on a page-fault read from the S3 backup replica.
	SiteS3Fetch = "cluster.fetch.s3"
	// SiteReplicate fires on the synchronous secondary write during
	// segment append.
	SiteReplicate = "cluster.replicate"
	// SiteExchangeSend fires on a batch handoff between slices — a lost
	// link in the in-process "network".
	SiteExchangeSend = "exec.exchange.send"
	// SiteDataGet / SiteDataPut fire inside the data-lake object store
	// (COPY sources).
	SiteDataGet = "s3.data.get"
	SiteDataPut = "s3.data.put"
	// SiteBackupGet / SiteBackupPut fire inside the backup-region store.
	SiteBackupGet = "s3.backup.get"
	SiteBackupPut = "s3.backup.put"
	// SiteResizeCopy fires once per table on an online resize's snapshot
	// copy (writes still flowing on the source).
	SiteResizeCopy = "controlplane.resize.copy"
	// SiteResizeCatchup fires on each catch-up re-copy of a table whose
	// data version moved during the snapshot phase.
	SiteResizeCatchup = "controlplane.resize.catchup"
	// SiteResizeCutover fires on the final quiesced delta copy, inside the
	// write-rejection window.
	SiteResizeCutover = "controlplane.resize.cutover"
	// SiteBurstHydrate fires on each page-fault backup GET that hydrates a
	// concurrency-scaling burst cluster.
	SiteBurstHydrate = "burst.hydrate"
	// SiteBurstRoute fires when the endpoint routes a read query to a
	// burst cluster (an injected error falls the query back to the primary).
	SiteBurstRoute = "burst.route"
)

// Rule schedules one site's behavior.
type Rule struct {
	// Prob is the probability [0,1] that a hit returns an injected error.
	Prob float64
	// Count caps how many errors the site may inject; 0 means unlimited.
	Count int64
	// Latency, when set, delays hits (a slow disk or link, not a dead one).
	Latency time.Duration
	// LatencyProb is the probability a hit sleeps Latency; 0 with a
	// non-zero Latency means every hit sleeps.
	LatencyProb float64
	// Err overrides the injected error text.
	Err string
}

// Plan seeds an Injector: one RNG seed plus per-site rules. The zero
// value (no sites) injects nothing but still counts hits, which makes
// stv_faults an inventory of the wired sites.
type Plan struct {
	// Seed drives the single RNG behind every probabilistic decision;
	// 0 picks 1 so a zero-value plan is still deterministic.
	Seed int64
	// Sites maps site name → rule.
	Sites map[string]Rule
	// Disabled starts the injector off; SetEnabled / SET fault_injection
	// toggles it at runtime.
	Disabled bool
}

// Error is an injected fault. Errors.Is/As against *Error lets retry
// logic distinguish injected (transient) failures from real bugs.
type Error struct {
	Site string
	Msg  string
}

func (e *Error) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("faults: %s: %s", e.Site, e.Msg)
	}
	return fmt.Sprintf("faults: injected fault at %s", e.Site)
}

// IsInjected reports whether err originated from an Injector.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// siteState is one site's rule plus its cumulative counters.
type siteState struct {
	rule     Rule
	hits     int64
	injected int64
	delayed  int64
}

// SiteSnapshot is one stv_faults row.
type SiteSnapshot struct {
	Site     string
	Rule     Rule
	Hits     int64
	Injected int64
	Delayed  int64
}

// Injector evaluates fault rules at every registered site. All methods
// are safe on a nil receiver (a database with no fault plan pays one
// nil check per site hit) and safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	sites   map[string]*siteState
	order   []string // site names in first-hit/first-rule order
	enabled bool
	seed    int64

	// injectedTotal mirrors the cumulative injected-error count into the
	// shared registry as fault_injected_total; may be nil.
	injectedTotal *telemetry.Counter

	// sleep is swappable for tests; time.Sleep otherwise.
	sleep func(time.Duration)
}

// NewInjector builds an injector from a plan; a nil plan returns a nil
// injector (every method no-ops).
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	in := &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		sites:   map[string]*siteState{},
		enabled: !p.Disabled,
		seed:    seed,
		sleep:   time.Sleep,
	}
	for name, rule := range p.Sites {
		in.site(name).rule = rule
	}
	return in
}

// site returns name's state, registering the site on first use. Callers
// hold in.mu (or own in, as NewInjector does).
func (in *Injector) site(name string) *siteState {
	st := in.sites[name]
	if st == nil {
		st = &siteState{}
		in.sites[name] = st
		in.order = append(in.order, name)
		sort.Strings(in.order)
	}
	return st
}

// Seed returns the plan's effective RNG seed (0 for a nil injector) —
// chaos tests print it so failures replay.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// SetMetrics mirrors injected-error counts into reg (fault_injected_total).
func (in *Injector) SetMetrics(reg *telemetry.Registry) {
	if in == nil || reg == nil {
		return
	}
	in.mu.Lock()
	in.injectedTotal = reg.Counter("fault_injected_total")
	in.mu.Unlock()
}

// SetEnabled toggles injection at runtime (SET fault_injection = on|off).
// Hit counting continues either way.
func (in *Injector) SetEnabled(on bool) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.enabled = on
	in.mu.Unlock()
}

// Enabled reports whether injection is live.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.enabled
}

// SetRule installs or replaces one site's rule at runtime.
func (in *Injector) SetRule(site string, r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.site(site).rule = r
}

// Hit evaluates site's rule once: it may sleep (latency schedule) and may
// return an injected *Error. A nil injector, a disabled one, and a site
// with no rule all return nil — but hits are always counted, so
// stv_faults lists every site the engine actually passed through.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	st := in.site(site)
	st.hits++
	if !in.enabled {
		in.mu.Unlock()
		return nil
	}
	r := st.rule
	var delay time.Duration
	if r.Latency > 0 && (r.LatencyProb <= 0 || in.rng.Float64() < r.LatencyProb) {
		delay = r.Latency
		st.delayed++
	}
	var err error
	if r.Prob > 0 && (r.Count == 0 || st.injected < r.Count) && in.rng.Float64() < r.Prob {
		st.injected++
		err = &Error{Site: site, Msg: r.Err}
		if in.injectedTotal != nil {
			in.injectedTotal.Inc()
		}
	}
	sleep := in.sleep
	in.mu.Unlock()
	if delay > 0 {
		sleep(delay)
	}
	return err
}

// Snapshot returns every known site's rule and counters, sorted by name
// — the rows behind stv_faults.
func (in *Injector) Snapshot() []SiteSnapshot {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]SiteSnapshot, 0, len(in.order))
	for _, name := range in.order {
		st := in.sites[name]
		out = append(out, SiteSnapshot{
			Site:     name,
			Rule:     st.rule,
			Hits:     st.hits,
			Injected: st.injected,
			Delayed:  st.delayed,
		})
	}
	return out
}
