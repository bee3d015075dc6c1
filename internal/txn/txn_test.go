package txn

import (
	"sync"
	"testing"
	"time"
)

// commit reserves and publishes in one step, the way a writer with nothing
// to register would; it returns the published xid.
func commit(m *Manager, t *Txn) (int64, error) {
	xid, err := m.Reserve(t)
	if err != nil {
		return 0, err
	}
	return xid, m.Publish(t)
}

func TestSnapshotVisibility(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	if t1.Snapshot != 0 {
		t.Errorf("first snapshot = %d", t1.Snapshot)
	}
	xid, err := commit(m, t1)
	if err != nil || xid != 1 {
		t.Fatalf("commit = %d, %v", xid, err)
	}
	t2 := m.Begin()
	if t2.Snapshot != 1 {
		t.Errorf("snapshot after one commit = %d", t2.Snapshot)
	}
	// A transaction beginning before t3 commits must not see t3's xid.
	t3 := m.Begin()
	t4 := m.Begin()
	x3, _ := commit(m, t3)
	if t4.Snapshot >= x3 {
		t.Errorf("t4 snapshot %d sees t3 commit %d", t4.Snapshot, x3)
	}
	m.Abort(t4)
}

func TestWriteLockConflict(t *testing.T) {
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	if err := m.LockTable(a, 7); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring your own lock is fine.
	if err := m.LockTable(a, 7); err != nil {
		t.Fatal(err)
	}
	// Another table is unaffected.
	if err := m.LockTable(b, 8); err != nil {
		t.Fatal(err)
	}
	// A second writer of the same table queues until a commits.
	acquired := make(chan error, 1)
	go func() { acquired <- m.LockTable(b, 7) }()
	select {
	case err := <-acquired:
		t.Fatalf("queued lock returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := commit(m, a); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("lock after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued writer never woke up")
	}
	m.Abort(b)
	if m.ActiveCount() != 0 {
		t.Errorf("active = %d", m.ActiveCount())
	}
}

func TestAbortReleasesLocksWithoutCommit(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	m.LockTable(a, 1)
	before := m.CurrentXid()
	m.Abort(a)
	if m.CurrentXid() != before {
		t.Error("abort advanced the commit counter")
	}
	b := m.Begin()
	if err := m.LockTable(b, 1); err != nil {
		t.Errorf("lock after abort: %v", err)
	}
}

func TestDoubleFinish(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	commit(m, a)
	if _, err := commit(m, a); err == nil {
		t.Error("double commit accepted")
	}
	m.Abort(a) // no-op, must not panic
	if err := m.LockTable(a, 1); err == nil {
		t.Error("lock on finished txn accepted")
	}
}

func TestSetCommitXidForRestore(t *testing.T) {
	m := NewManager()
	m.SetCommitXid(500)
	if m.CurrentXid() != 500 {
		t.Errorf("xid = %d", m.CurrentXid())
	}
	m.SetCommitXid(100) // never rolls back
	if m.CurrentXid() != 500 {
		t.Error("SetCommitXid rolled backwards")
	}
	x, _ := commit(m, m.Begin())
	if x != 501 {
		t.Errorf("next commit = %d", x)
	}
}

func TestConcurrentCommitsMonotonic(t *testing.T) {
	m := NewManager()
	const n = 100
	xids := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin()
			x, err := commit(m, tx)
			if err != nil {
				t.Error(err)
			}
			xids[i] = x
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, x := range xids {
		if x == 0 || seen[x] {
			t.Fatalf("duplicate or zero xid %d", x)
		}
		seen[x] = true
	}
	if m.CurrentXid() != n {
		t.Errorf("final xid = %d", m.CurrentXid())
	}
}
