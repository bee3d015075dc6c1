package controlplane

import (
	"sync"
	"time"

	"redshift/internal/core"
	"redshift/internal/sim"
)

// MaintenanceDaemon periodically runs the database's self-correction pass
// (core.AutoMaintain) — §3.2's future work: table administration "closer to
// backup in operation", initiated by the system when load is light rather
// than by the user.
type MaintenanceDaemon struct {
	clock    sim.Clock
	endpoint *Endpoint
	interval time.Duration

	mu      sync.Mutex
	stop    chan struct{}
	stopped bool
	reports []core.MaintenanceReport
}

// NewMaintenanceDaemon wires a daemon to the endpoint (it follows the
// endpoint across resizes and restores).
func NewMaintenanceDaemon(clock sim.Clock, ep *Endpoint, interval time.Duration) *MaintenanceDaemon {
	return &MaintenanceDaemon{
		clock:    clock,
		endpoint: ep,
		interval: interval,
		stop:     make(chan struct{}),
	}
}

// RunOnce executes one maintenance pass immediately.
func (d *MaintenanceDaemon) RunOnce() (core.MaintenanceReport, error) {
	report, err := d.endpoint.DB().AutoMaintain()
	if err == nil {
		d.mu.Lock()
		d.reports = append(d.reports, report)
		d.mu.Unlock()
	}
	return report, err
}

// Start launches the periodic loop on a goroutine. Each tick sleeps on the
// daemon's clock, so tests drive it in scaled or virtual time.
func (d *MaintenanceDaemon) Start() {
	go func() {
		for {
			select {
			case <-d.stop:
				return
			default:
			}
			d.clock.Sleep(d.interval)
			select {
			case <-d.stop:
				return
			default:
			}
			d.RunOnce() // errors are recorded per pass; the loop survives
		}
	}()
}

// Stop halts the loop.
func (d *MaintenanceDaemon) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.stopped {
		d.stopped = true
		close(d.stop)
	}
}

// Reports returns all completed pass reports.
func (d *MaintenanceDaemon) Reports() []core.MaintenanceReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]core.MaintenanceReport(nil), d.reports...)
}
