package core

import (
	"errors"
	"fmt"
	"os"
)

// Quiescent reports what a database with no statement in flight still
// holds — nil at rest: whatever path a statement left by (success, error,
// cancel, timeout, eviction, disconnect), all of it must be back to zero.
// Scratch is checked in a configured SpillDir only; the default base under
// the OS temp dir is shared with other processes.
func (db *Database) Quiescent() error {
	var held []error
	hold := func(n int64, what string) {
		if n != 0 {
			held = append(held, fmt.Errorf("%s = %d", what, n))
		}
	}
	w := db.wlm.Stats()
	hold(int64(w.Active), "wlm slots held")
	hold(int64(w.Queued), "wlm queue entries")
	hold(int64(len(db.runningQueries())), "running queries")
	hold(int64(db.txm.ActiveCount()), "active transactions and read views")
	hold(db.metrics.Gauge("exec_mem_bytes").Value(), "exec_mem_bytes")
	hold(db.metrics.Gauge("exec_batches_in_flight").Value(), "exec_batches_in_flight")
	horizon := db.txm.OldestActiveSnapshot()
	for _, def := range db.cat.List() {
		superseded := db.cl.TableBytes(def.ID)
		for sl := 0; sl < db.cl.NumSlices(); sl++ {
			for _, seg := range db.cl.VisibleSegments(sl, def.ID, horizon) {
				superseded -= seg.ByteSize()
			}
		}
		hold(superseded, "bytes of superseded segments behind the prune horizon in "+def.Name)
	}
	if db.cfg.SpillDir != "" {
		ents, err := os.ReadDir(db.cfg.SpillDir)
		if err != nil && !os.IsNotExist(err) {
			held = append(held, err)
		}
		for _, e := range ents {
			held = append(held, fmt.Errorf("scratch entry %s left in %s", e.Name(), db.cfg.SpillDir))
		}
	}
	if len(held) == 0 {
		return nil
	}
	return fmt.Errorf("core: not quiescent: %w", errors.Join(held...))
}
