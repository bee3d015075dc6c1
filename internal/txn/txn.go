// Package txn implements the leader node's transaction coordination (§2.1:
// the leader "coordinates serialization and state of transactions").
//
// The model is snapshot isolation over append-only tables: commit
// identifiers are assigned at commit time from a single monotonic counter,
// a transaction's snapshot is the counter value when it began, and a
// segment registered with commit xid X is visible exactly to snapshots
// ≥ X. Writers take table-level write locks, so write-write conflicts
// surface immediately as serialization failures instead of silent lost
// updates.
package txn

import (
	"fmt"
	"sync"
)

// Txn is one transaction's coordination state.
type Txn struct {
	// ID is a unique begin identifier (diagnostics only).
	ID int64
	// Snapshot is the highest commit xid visible to this transaction.
	Snapshot int64

	locked   []int64
	reserved int64 // commit xid from Reserve; 0 until reserved
	done     bool
}

// Manager is the leader's transaction table.
type Manager struct {
	mu sync.Mutex
	// commitXid is the highest PUBLISHED commit identifier: everything at
	// or below it is fully visible. Snapshots read this value.
	commitXid int64
	// reservedHigh is the highest xid handed out by Reserve. Xids in
	// (commitXid, reservedHigh] are in flight: their writers may still be
	// publishing segments, so no snapshot may include them yet.
	reservedHigh int64
	// published marks reserved xids whose writers finished; commitXid
	// advances over the contiguous published prefix.
	published map[int64]bool
	nextBegin int64
	// writeLocks maps table ID → begin ID of the lock holder.
	writeLocks map[int64]int64
	// lockFreed wakes writers queued on a table lock.
	lockFreed *sync.Cond
	active    map[int64]*Txn
}

// NewManager returns an empty transaction manager.
func NewManager() *Manager {
	m := &Manager{writeLocks: map[int64]int64{}, active: map[int64]*Txn{}, published: map[int64]bool{}}
	m.lockFreed = sync.NewCond(&m.mu)
	return m
}

// Begin starts a transaction whose snapshot is everything committed so far.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextBegin++
	t := &Txn{ID: m.nextBegin, Snapshot: m.commitXid}
	m.active[t.ID] = t
	return t
}

// LockTable acquires a table-level write lock, queueing behind the current
// holder the way the engine queues concurrent writers on one table. It
// returns immediately when the transaction already holds the lock.
func (m *Manager) LockTable(t *Txn, tableID int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if t.done {
			return fmt.Errorf("txn %d: already finished", t.ID)
		}
		holder, held := m.writeLocks[tableID]
		if held && holder == t.ID {
			return nil
		}
		if !held {
			m.writeLocks[tableID] = t.ID
			t.locked = append(t.locked, tableID)
			return nil
		}
		m.lockFreed.Wait()
	}
}

// Reserve assigns the transaction's commit xid without publishing it:
// segments registered under the xid stay invisible to every snapshot until
// Publish. The caller must keep its table locks until Publish or Abort, so
// data publication is atomic with respect to readers and other writers.
func (m *Manager) Reserve(t *Txn) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.done {
		return 0, fmt.Errorf("txn %d: already finished", t.ID)
	}
	if t.reserved != 0 {
		return t.reserved, nil
	}
	m.reservedHigh++
	t.reserved = m.reservedHigh
	m.published[t.reserved] = false
	return t.reserved, nil
}

// Publish makes the reserved xid visible and finishes the transaction.
// Visibility advances over the contiguous prefix of published xids, so a
// later-reserved writer that publishes first does not expose an
// earlier writer's half-published data.
func (m *Manager) Publish(t *Txn) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.done {
		return fmt.Errorf("txn %d: already finished", t.ID)
	}
	if t.reserved == 0 {
		return fmt.Errorf("txn %d: nothing reserved", t.ID)
	}
	m.published[t.reserved] = true
	m.advanceLocked()
	m.finishLocked(t)
	return nil
}

func (m *Manager) advanceLocked() {
	for {
		done, ok := m.published[m.commitXid+1]
		if !ok || !done {
			return
		}
		delete(m.published, m.commitXid+1)
		m.commitXid++
	}
}

// Abort releases the transaction. If it had reserved a commit xid, the
// xid is published as empty (the caller must already have discarded any
// segments registered under it) so later commits are not blocked behind it.
func (m *Manager) Abort(t *Txn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.done {
		return
	}
	if t.reserved != 0 {
		m.published[t.reserved] = true
		m.advanceLocked()
	}
	m.finishLocked(t)
}

func (m *Manager) finishLocked(t *Txn) {
	released := false
	for _, tableID := range t.locked {
		if m.writeLocks[tableID] == t.ID {
			delete(m.writeLocks, tableID)
			released = true
		}
	}
	if released {
		m.lockFreed.Broadcast()
	}
	t.locked = nil
	t.done = true
	delete(m.active, t.ID)
}

// CurrentXid returns the latest committed xid — the snapshot an
// auto-commit read uses.
func (m *Manager) CurrentXid() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitXid
}

// SetCommitXid fast-forwards the counter during restore so that restored
// segments (registered with their original xids) are visible.
func (m *Manager) SetCommitXid(x int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if x > m.commitXid {
		m.commitXid = x
	}
	if x > m.reservedHigh {
		m.reservedHigh = x
	}
}

// OldestActiveSnapshot returns the smallest snapshot any in-flight
// transaction holds, or the current commit xid when none are active — the
// horizon below which superseded segments can be reclaimed.
func (m *Manager) OldestActiveSnapshot() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := m.commitXid
	for _, t := range m.active {
		if t.Snapshot < oldest {
			oldest = t.Snapshot
		}
	}
	return oldest
}

// ActiveCount returns how many transactions are in flight.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
