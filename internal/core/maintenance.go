package core

import (
	"context"
	"fmt"

	"redshift/internal/sql"
)

// MaintenanceReport says what one auto-maintenance pass did.
type MaintenanceReport struct {
	// Vacuumed tables had their sorted runs merged (unsorted fraction or
	// run count over threshold).
	Vacuumed []string
	// Analyzed tables had statistics refreshed (no stats despite data).
	Analyzed []string
	// Deferred is non-empty when the pass backed off because the cluster
	// was busy — maintenance runs "when load is otherwise light" (§3.2).
	Deferred bool
}

// MaintenancePolicy tunes the self-correction thresholds.
type MaintenancePolicy struct {
	// UnsortedFraction triggers VACUUM when unsorted rows exceed this
	// share of the table (default 0.1).
	UnsortedFraction float64
	// MaxRunsPerSlice triggers VACUUM when any slice holds more sorted
	// runs than this (default 4) — many small runs degrade zone-map
	// pruning even when each is individually sorted.
	MaxRunsPerSlice int
	// OnlyWhenIdle defers the pass while any writer or reader is in flight
	// (both hold a registered transaction for as long as they run).
	OnlyWhenIdle bool
}

// DefaultMaintenancePolicy returns the paper-shaped defaults.
func DefaultMaintenancePolicy() MaintenancePolicy {
	return MaintenancePolicy{UnsortedFraction: 0.1, MaxRunsPerSlice: 4, OnlyWhenIdle: true}
}

// AutoMaintain is §3.2's future-work made real: it inspects every table's
// statistics and physical layout, VACUUMs tables whose access performance
// is degrading (unsorted fraction or run count over threshold), and
// refreshes missing statistics — no user-initiated administration.
func (db *Database) AutoMaintain(policy MaintenancePolicy) (MaintenanceReport, error) {
	var report MaintenanceReport
	if policy.OnlyWhenIdle && db.txm.ActiveCount() > 0 {
		report.Deferred = true
		return report, nil
	}
	if policy.UnsortedFraction <= 0 {
		policy.UnsortedFraction = 0.1
	}
	if policy.MaxRunsPerSlice <= 0 {
		policy.MaxRunsPerSlice = 4
	}
	ctx, run := context.Background(), db.offStatement()
	for _, def := range db.cat.List() {
		stats, err := db.cat.Stats(def.ID)
		if err != nil {
			return report, err
		}
		unsorted := stats.Rows > 0 && float64(stats.UnsortedRows)/float64(stats.Rows) > policy.UnsortedFraction
		if unsorted || db.maxRunsPerSlice(def.ID) > policy.MaxRunsPerSlice {
			if err := db.vacuumTable(ctx, run, def.Name); err != nil {
				return report, fmt.Errorf("core: auto-vacuum %s: %w", def.Name, err)
			}
			report.Vacuumed = append(report.Vacuumed, def.Name)
		}
		// Missing statistics despite visible data → ANALYZE. (COPY keeps
		// stats fresh, so this catches tables populated with STATUPDATE
		// OFF or restored from old backups.)
		if stats.Rows == 0 && db.maxRunsPerSlice(def.ID) > 0 {
			if _, err := db.runAnalyze(ctx, run, &sql.Analyze{Table: def.Name}); err != nil {
				return report, fmt.Errorf("core: auto-analyze %s: %w", def.Name, err)
			}
			report.Analyzed = append(report.Analyzed, def.Name)
		}
	}
	return report, nil
}

// maxRunsPerSlice is the most segments any slice holds of a table (0: none).
func (db *Database) maxRunsPerSlice(id int64) int {
	view := db.beginRead(nil)
	defer view.release()
	most := 0
	for sl := 0; sl < db.cl.NumSlices(); sl++ {
		if n := len(view.segments(sl, id)); n > most {
			most = n
		}
	}
	return most
}
