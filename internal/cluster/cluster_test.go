package cluster

import (
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/compress"
	"redshift/internal/storage"
	"redshift/internal/types"
)

func testCluster(t *testing.T, nodes, slicesPerNode int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: nodes, SlicesPerNode: slicesPerNode, BlockCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func intTable(style catalog.DistStyle) *catalog.TableDef {
	def := &catalog.TableDef{
		ID:   7,
		Name: "t",
		Columns: []catalog.ColumnDef{
			{Name: "k", Type: types.Int64, Encoding: compress.Raw},
			{Name: "v", Type: types.Int64, Encoding: compress.Raw},
		},
		DistStyle:  style,
		DistKeyCol: -1,
	}
	if style == catalog.DistKey {
		def.DistKeyCol = 0
	}
	return def
}

func mkRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 10))}
	}
	return rows
}

// distribute partitions rows the way a write places them: by the hash of
// the distribution key, or round-robin from the table's cursor.
func distribute(c *Cluster, def *catalog.TableDef, rows []types.Row) [][]types.Row {
	out := make([][]types.Row, c.NumSlices())
	start := 0
	if def.DistStyle == catalog.DistEven {
		start = c.AdvanceRoundRobin(def.ID, len(rows))
	}
	for i, row := range rows {
		s := (start + i) % c.NumSlices()
		if def.DistStyle == catalog.DistKey {
			s = c.TargetSliceKey(row[def.DistKeyCol])
		}
		out[s] = append(out[s], row)
	}
	return out
}

func mkSegment(t *testing.T, table int64, slice int32, rows []types.Row) *storage.Segment {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "v", Type: types.Int64},
	)
	b, err := storage.NewBuilder(table, slice, 0, schema, []compress.Encoding{compress.Raw, compress.Raw}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for c, col := range schema.Columns {
		v := types.NewVector(col.Type, len(rows))
		for _, r := range rows {
			v.Append(r[c])
		}
		if err := b.Column(c, v); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Finish(false)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestTopology(t *testing.T) {
	c := testCluster(t, 4, 2)
	if c.NumNodes() != 4 || c.NumSlices() != 8 {
		t.Fatalf("nodes=%d slices=%d", c.NumNodes(), c.NumSlices())
	}
	if c.Slice(5).Node.ID != 2 {
		t.Errorf("slice 5 on node %d", c.Slice(5).Node.ID)
	}
	if _, err := New(Config{Nodes: 0, SlicesPerNode: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestCohorts(t *testing.T) {
	c, _ := New(Config{Nodes: 6, SlicesPerNode: 1, CohortSize: 2})
	// Pairs: (0,1) (2,3) (4,5).
	cases := map[int]int{0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
	for p, want := range cases {
		if got := c.SecondaryNode(p); got != want {
			t.Errorf("SecondaryNode(%d) = %d, want %d", p, got, want)
		}
	}
	// Odd tail cohort: 7 nodes with cohort 4 → cohort {4,5,6}.
	c2, _ := New(Config{Nodes: 7, SlicesPerNode: 1, CohortSize: 4})
	if got := c2.SecondaryNode(6); got != 4 {
		t.Errorf("wraparound secondary = %d", got)
	}
	single, _ := New(Config{Nodes: 1, SlicesPerNode: 2})
	if single.SecondaryNode(0) != -1 {
		t.Error("single-node cluster cannot have a secondary")
	}
}

func TestRoundRobinEven(t *testing.T) {
	c := testCluster(t, 2, 2)
	def := intTable(catalog.DistEven)
	parts := distribute(c, def, mkRows(40))
	total := 0
	for s, rows := range parts {
		if len(rows) != 10 {
			t.Errorf("slice %d got %d rows, want 10", s, len(rows))
		}
		total += len(rows)
	}
	if total != 40 {
		t.Errorf("total = %d", total)
	}
	// Round robin continues across calls.
	parts2 := distribute(c, def, mkRows(2))
	n := 0
	for _, rows := range parts2 {
		n += len(rows)
	}
	if n != 2 {
		t.Error("second distribution lost rows")
	}
	// 42 rows dealt over 4 slices: the cursor stands at slice 2, and a
	// write of n rows moves it n on.
	if at := c.AdvanceRoundRobin(def.ID, 7); at != 2 {
		t.Errorf("cursor after 42 rows = %d, want 2", at)
	}
	if at := c.AdvanceRoundRobin(def.ID, 0); at != 1 {
		t.Errorf("cursor after 49 rows = %d, want 1", at)
	}
}

func TestKeyPlacementDeterministic(t *testing.T) {
	c := testCluster(t, 4, 2)
	def := intTable(catalog.DistKey)
	rows := mkRows(1000)
	a := distribute(c, def, rows)
	b := distribute(c, def, rows)
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatal("KEY distribution not deterministic")
		}
	}
	// Same key always lands on the same slice.
	seen := map[int64]int{}
	for s, part := range a {
		for _, r := range part {
			if prev, ok := seen[r[0].I]; ok && prev != s {
				t.Fatalf("key %d on two slices", r[0].I)
			}
			seen[r[0].I] = s
		}
	}
	// Distribution is roughly balanced (within 3x of ideal).
	ideal := 1000 / c.NumSlices()
	for s, part := range a {
		if len(part) > 3*ideal {
			t.Errorf("slice %d has %d rows (ideal %d)", s, len(part), ideal)
		}
	}
}

func TestAppendAndVisibility(t *testing.T) {
	c := testCluster(t, 2, 1)
	seg := mkSegment(t, 7, 0, mkRows(20))
	if err := c.Install(0, seg, nil, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.VisibleSegments(0, 7, 4); len(got) != 0 {
		t.Errorf("xid 4 sees %d segments", len(got))
	}
	if got := c.VisibleSegments(0, 7, 5); len(got) != 1 {
		t.Errorf("xid 5 sees %d segments", len(got))
	}
	if c.TableBytes(7) <= 0 {
		t.Error("TableBytes zero")
	}
	if ids := c.Tables(); len(ids) != 1 || ids[0] != 7 {
		t.Errorf("Tables = %v", ids)
	}
}

func TestReplicationAndFailover(t *testing.T) {
	c := testCluster(t, 2, 1)
	seg := mkSegment(t, 7, 0, mkRows(20))
	if err := c.Install(0, seg, nil, 1); err != nil {
		t.Fatal(err)
	}
	if c.NetBytes() <= 0 {
		t.Fatal("replication produced no network traffic")
	}

	// Fail node 0; payloads are gone.
	c.FailNode(0)
	var someBlock *storage.Block
	seg.Blocks(func(b *storage.Block) {
		if someBlock == nil {
			someBlock = b
		}
	})
	if someBlock.Resident() {
		t.Fatal("payload survived node failure")
	}
	// Fail over to the secondary.
	if err := c.FetchBlock(someBlock); err != nil {
		t.Fatal(err)
	}
	v, err := someBlock.Decode()
	if err != nil || v.Len() == 0 {
		t.Fatalf("decode after failover: %v", err)
	}
}

func TestRecoverNode(t *testing.T) {
	c := testCluster(t, 2, 2)
	def := intTable(catalog.DistEven)
	parts := distribute(c, def, mkRows(64))
	for s, rows := range parts {
		if len(rows) == 0 {
			continue
		}
		if err := c.Install(s, mkSegment(t, 7, int32(s), rows), nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.FailNode(1)
	blocks, bytes, err := c.RecoverNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if blocks == 0 || bytes == 0 {
		t.Errorf("recovered %d blocks, %d bytes", blocks, bytes)
	}
	if c.Node(1).Failed() {
		t.Error("node still marked failed")
	}
	// All blocks resident again.
	c.AllBlocks(func(b *storage.Block) {
		if !b.Resident() {
			t.Errorf("block %s still evicted", b.ID)
		}
	})
	// Secondary copies re-established on node 1 for node 0's blocks.
	if len(c.Node(1).secondary) == 0 {
		t.Error("re-replication to recovered node missing")
	}
}

func TestFetchBlockFromBackup(t *testing.T) {
	c := testCluster(t, 1, 1) // single node: no secondary
	seg := mkSegment(t, 7, 0, mkRows(8))
	if err := c.Install(0, seg, nil, 1); err != nil {
		t.Fatal(err)
	}
	payloads := map[storage.BlockID][]byte{}
	seg.Blocks(func(b *storage.Block) {
		payloads[b.ID] = append([]byte(nil), b.Payload()...)
	})
	c.SetBackupFetcher(func(b *storage.Block) ([]byte, error) {
		return payloads[b.ID], nil
	})
	c.EvictAll()
	var blk *storage.Block
	seg.Blocks(func(b *storage.Block) { blk = b })
	if err := c.FetchBlock(blk); err != nil {
		t.Fatal(err)
	}
	if !blk.Resident() {
		t.Error("block not refilled from backup")
	}
}

func TestFetchBlockNoReplica(t *testing.T) {
	c := testCluster(t, 1, 1)
	seg := mkSegment(t, 7, 0, mkRows(8))
	c.Install(0, seg, nil, 1)
	c.EvictAll()
	var blk *storage.Block
	seg.Blocks(func(b *storage.Block) { blk = b })
	if err := c.FetchBlock(blk); err == nil {
		t.Error("fetch with no replica should fail")
	}
}

func TestAppendToFailedNodeRejected(t *testing.T) {
	c := testCluster(t, 2, 1)
	c.FailNode(0)
	if err := c.Install(0, mkSegment(t, 7, 0, mkRows(4)), nil, 1); err == nil {
		t.Error("append to failed node accepted")
	}
	if err := c.Install(99, mkSegment(t, 7, 0, mkRows(4)), nil, 1); err == nil {
		t.Error("append to bogus slice accepted")
	}
}

func TestReplaceAndDrop(t *testing.T) {
	c := testCluster(t, 1, 2)
	c.Install(0, mkSegment(t, 7, 0, mkRows(8)), nil, 1)
	c.Install(0, mkSegment(t, 7, 0, mkRows(8)), nil, 2)
	if got := len(c.VisibleSegments(0, 7, 10)); got != 2 {
		t.Fatalf("segments = %d", got)
	}
	merged := mkSegment(t, 7, 0, mkRows(16))
	c.Install(0, merged, c.VisibleSegments(0, 7, 3), 3)
	if got := len(c.VisibleSegments(0, 7, 10)); got != 1 {
		t.Errorf("after replace = %d", got)
	}
	c.DropTable(7)
	if got := len(c.Tables()); got != 0 {
		t.Errorf("tables after drop = %d", got)
	}
}

func TestCollocatedVsShuffleTrafficShape(t *testing.T) {
	// The A5 invariant at unit scale: loading a KEY-distributed table sends
	// only replication traffic; the cross-node volume for EVEN + shuffle
	// queries is accounted by the engine (exercised in core tests). Here we
	// just verify accounting: same-node is free, cross-node is counted.
	c := testCluster(t, 2, 1)
	c.AccountTransfer(0, 0, 1000, TransferShuffle)
	if c.NetBytes() != 0 {
		t.Error("same-node transfer should be free")
	}
	c.AccountTransfer(0, 1, 1000, TransferShuffle)
	if c.NetBytes() != 1000 {
		t.Error("cross-node transfer not counted")
	}
	if c.NetBytesByKind(TransferShuffle) != 1000 {
		t.Error("shuffle bytes not attributed")
	}
	if c.NetBytesByKind(TransferBroadcast) != 0 {
		t.Error("broadcast bytes misattributed")
	}
	c.ResetNetBytes()
	if c.NetBytes() != 0 || c.NetBytesByKind(TransferShuffle) != 0 {
		t.Error("reset failed")
	}
}

func TestDropTableReclaimsRoundRobinCursor(t *testing.T) {
	// Regression: DropTable left the EVEN round-robin cursor in c.rr, so
	// create/drop churn grew the map without bound.
	c := testCluster(t, 2, 2)
	for i := 0; i < 100; i++ {
		def := intTable(catalog.DistEven)
		def.ID = int64(100 + i)
		distribute(c, def, mkRows(8))
		c.DropTable(def.ID)
	}
	c.rrMu.Lock()
	n := len(c.rr)
	c.rrMu.Unlock()
	if n != 0 {
		t.Errorf("rr cursors leaked: %d entries after drop churn", n)
	}
}

func TestDiscardXidReclaimsRoundRobinCursor(t *testing.T) {
	// A table created by an aborted transaction has its only segments
	// registered under the aborted xid; discarding them must also reclaim
	// the round-robin cursor.
	c := testCluster(t, 2, 2)
	def := intTable(catalog.DistEven)
	def.ID = 42
	parts := distribute(c, def, mkRows(16))
	for s, rows := range parts {
		if len(rows) == 0 {
			continue
		}
		if err := c.Install(s, mkSegment(t, def.ID, int32(s), rows), nil, 9); err != nil {
			t.Fatal(err)
		}
	}
	c.DiscardXid(def.ID, 9)
	c.rrMu.Lock()
	_, leaked := c.rr[def.ID]
	c.rrMu.Unlock()
	if leaked {
		t.Error("rr cursor survived DiscardXid of a table with no other segments")
	}

	// But a pre-existing table keeps its cursor when only one xid's
	// segments are discarded.
	pre := intTable(catalog.DistEven)
	pre.ID = 43
	parts = distribute(c, pre, mkRows(16))
	for s, rows := range parts {
		if len(rows) == 0 {
			continue
		}
		if err := c.Install(s, mkSegment(t, pre.ID, int32(s), rows), nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.DiscardXid(pre.ID, 9) // no segments under xid 9
	c.rrMu.Lock()
	_, kept := c.rr[pre.ID]
	c.rrMu.Unlock()
	if !kept {
		t.Error("rr cursor dropped for a table that still has segments")
	}
}

func TestRecoverNodeBytesIsolatedFromConcurrentTraffic(t *testing.T) {
	// Regression: RecoverNode reported netBytes.Load()-start, so any
	// transfer concurrent with the recovery was misattributed to it. The
	// backup fetcher runs once per recovered block, so injecting unrelated
	// traffic there lands mid-recovery deterministically — no scheduler
	// luck needed.
	c := testCluster(t, 1, 2) // single node: every recovery fetch hits backup
	def := intTable(catalog.DistEven)
	parts := distribute(c, def, mkRows(256))
	for s, rows := range parts {
		if len(rows) == 0 {
			continue
		}
		if err := c.Install(s, mkSegment(t, 7, int32(s), rows), nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	payloads := map[storage.BlockID][]byte{}
	c.AllBlocks(func(b *storage.Block) {
		payloads[b.ID] = append([]byte(nil), b.Payload()...)
	})
	noise := false
	c.SetBackupFetcher(func(b *storage.Block) ([]byte, error) {
		if noise {
			c.AccountTransfer(0, -1, 1<<20, TransferShuffle)
		}
		return payloads[b.ID], nil
	})

	c.FailNode(0)
	_, quiet, err := c.RecoverNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if quiet == 0 {
		t.Fatal("quiet recovery moved no bytes")
	}

	c.FailNode(0)
	noise = true
	_, noisy, err := c.RecoverNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if noisy != quiet {
		t.Errorf("recovery bytes polluted by concurrent traffic: quiet=%d noisy=%d", quiet, noisy)
	}
}

func TestReplaceKeepsOldSnapshotsReadable(t *testing.T) {
	// The MVCC contract behind VACUUM/TRUNCATE: a reader holding snapshot S
	// must keep seeing the pre-replacement segments even after the
	// replacement commits at S+1.
	c := testCluster(t, 1, 1)
	old := mkSegment(t, 7, 0, mkRows(8))
	c.Install(0, old, nil, 1)

	merged := mkSegment(t, 7, 0, mkRows(8))
	c.Install(0, merged, c.VisibleSegments(0, 7, 2), 2)

	// Snapshot 1 (taken before the replacement) sees only the old segment.
	got := c.VisibleSegments(0, 7, 1)
	if len(got) != 1 || got[0] != old {
		t.Fatalf("snapshot 1 sees %d segments", len(got))
	}
	// Snapshot 2 sees only the replacement.
	got = c.VisibleSegments(0, 7, 2)
	if len(got) != 1 || got[0] != merged {
		t.Fatalf("snapshot 2 sees wrong segments")
	}

	// Pruning below the oldest active snapshot keeps the old segment...
	if n := c.PruneDropped(1); n != 0 {
		t.Fatalf("pruned %d entries still visible to snapshot 1", n)
	}
	if got := c.VisibleSegments(0, 7, 1); len(got) != 1 {
		t.Fatal("old segment reclaimed while a snapshot needed it")
	}
	// ...and pruning once every snapshot has advanced reclaims it.
	if n := c.PruneDropped(2); n != 1 {
		t.Fatalf("pruned %d, want 1", n)
	}
	if got := c.VisibleSegments(0, 7, 2); len(got) != 1 {
		t.Fatal("live segment pruned")
	}
}

func TestTruncateVisibilityWindow(t *testing.T) {
	c := testCluster(t, 1, 1)
	c.Install(0, mkSegment(t, 7, 0, mkRows(8)), nil, 1)
	c.Install(0, nil, c.VisibleSegments(0, 7, 2), 2) // TRUNCATE
	if got := c.VisibleSegments(0, 7, 1); len(got) != 1 {
		t.Fatal("pre-truncate snapshot lost its data")
	}
	if got := c.VisibleSegments(0, 7, 5); len(got) != 0 {
		t.Fatal("post-truncate snapshot still sees data")
	}
}

// replicaBlocks counts the secondary copies held anywhere on the cluster.
func replicaBlocks(c *Cluster) int {
	n := 0
	for _, node := range c.nodes {
		node.mu.RLock()
		n += len(node.secondary)
		node.mu.RUnlock()
	}
	return n
}

// TestSegmentsLeavingForGoodTakeTheirReplicas: block ids are never reused,
// so the secondary copies of a pruned or discarded segment would otherwise
// stay for the life of the cluster.
func TestSegmentsLeavingForGoodTakeTheirReplicas(t *testing.T) {
	c := testCluster(t, 2, 1)
	if err := c.Install(0, mkSegment(t, 7, 0, mkRows(8)), nil, 1); err != nil {
		t.Fatal(err)
	}
	one := replicaBlocks(c)
	if one == 0 {
		t.Fatal("segment was not replicated")
	}
	if err := c.Install(1, mkSegment(t, 7, 1, mkRows(8)), nil, 2); err != nil {
		t.Fatal(err)
	}
	c.DiscardXid(7, 2) // the second writer aborted
	if got := replicaBlocks(c); got != one {
		t.Errorf("replica blocks after DiscardXid = %d, want %d", got, one)
	}
	c.Install(0, nil, c.VisibleSegments(0, 7, 3), 3)
	if c.PruneDropped(2); replicaBlocks(c) != one {
		t.Error("replicas dropped while snapshot 2 could still read the segment")
	}
	if c.PruneDropped(3); replicaBlocks(c) != 0 {
		t.Errorf("replica blocks after the prune = %d, want 0", replicaBlocks(c))
	}
}
