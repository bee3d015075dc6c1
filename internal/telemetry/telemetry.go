// Package telemetry is the CloudWatch substitute of §3: a stdlib-only
// metrics registry (counters, gauges, histograms with quantile estimates)
// plus per-query trace spans and a ring-buffer query log. The paper's
// control plane is built on continuous instrumentation — health metrics
// drive patch rollback, replacement workflows and the ticket Pareto of §5 —
// so the reproduction measures itself the same way: every layer (core,
// cluster, WLM, control plane) emits into one registry that a `/metrics`
// endpoint and the stl_/stv_ system tables expose.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 metric (queue depth, active slots).
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBase is the histogram bucket growth factor: ~9.5% wide buckets keep
// quantile estimates within ~5% relative error while the whole range
// 1e-9..1e12 fits in a small sparse map.
const histBase = 1.095

// Histogram accumulates float64 observations into exponentially sized
// buckets and reports approximate quantiles (p50/p95/p99). Exact min and
// max are kept so estimates never leave the observed range.
type Histogram struct {
	mu      sync.Mutex
	buckets map[int]int64 // bucket index -> count; index math.MinInt for v <= 0
	count   int64
	sum     float64
	min     float64
	max     float64
}

// underflowBucket collects non-positive observations.
const underflowBucket = math.MinInt32

// bucketOf maps a positive value to its exponential bucket index.
func bucketOf(v float64) int {
	if v <= 0 {
		return underflowBucket
	}
	return int(math.Floor(math.Log(v) / math.Log(histBase)))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.buckets == nil {
		h.buckets = map[int]int64{}
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns how many values were observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed values:
// the geometric midpoint of the bucket where the cumulative count crosses
// q·N, clamped to the exact observed [min, max].
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	idxs := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	rank := q * float64(h.count)
	var cum float64
	for _, i := range idxs {
		cum += float64(h.buckets[i])
		if cum >= rank {
			var v float64
			if i == underflowBucket {
				v = h.min
			} else {
				// Geometric midpoint of [base^i, base^(i+1)).
				v = math.Pow(histBase, float64(i)+0.5)
			}
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Registry holds named metrics. All accessors get-or-create, so emitting
// code never checks registration; names are conventionally
// snake_case with a _total/_seconds/_bytes suffix.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		funcs:    map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is read when the registry is
// rendered: for levels their owner already keeps (cache counters), so nothing
// is pushed per statement. Registering a name again replaces its function —
// the registry outlives the database behind an endpoint.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Render writes every metric in a Prometheus-flavored text format, sorted
// by name: counters, gauges and gauge functions as `name value`, histograms as
// `name_count`, `name_sum` and `name{quantile="..."}` lines.
func (r *Registry) Render() string {
	r.mu.Lock()
	type hline struct {
		name string
		h    *Histogram
	}
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, g.Value()))
	}
	var hs []hline
	for name, h := range r.hists {
		hs = append(hs, hline{name, h})
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.Unlock()
	// Gauge functions take their owners' locks: called outside the registry's.
	for name, fn := range funcs {
		lines = append(lines, fmt.Sprintf("%s %d", name, fn()))
	}
	for _, hl := range hs {
		lines = append(lines, fmt.Sprintf("%s_count %d", hl.name, hl.h.Count()))
		lines = append(lines, fmt.Sprintf("%s_sum %g", hl.name, hl.h.Sum()))
		for _, q := range []float64{0.5, 0.95, 0.99} {
			lines = append(lines, fmt.Sprintf("%s{quantile=%q} %g", hl.name, fmt.Sprintf("%g", q), hl.h.Quantile(q)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
