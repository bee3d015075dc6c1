package backup

import (
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/s3sim"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// fixture builds a 2-node cluster with one table and n rows committed at
// xid 1.
func fixture(t *testing.T, n int) (*cluster.Cluster, *catalog.Catalog) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	def := &catalog.TableDef{
		Name: "events",
		Columns: []catalog.ColumnDef{
			{Name: "id", Type: types.Int64, Encoding: compress.Delta},
			{Name: "payload", Type: types.String, Encoding: compress.LZ},
		},
		DistKeyCol: -1,
	}
	if err := cat.Create(def); err != nil {
		t.Fatal(err)
	}
	// Row i goes to slice i mod NumSlices, as an EVEN table's first load.
	for s := 0; s < c.NumSlices() && s < n; s++ {
		ids, payloads := types.NewVector(types.Int64, 0), types.NewVector(types.String, 0)
		for i := s; i < n; i += c.NumSlices() {
			ids.Append(types.NewInt(int64(i)))
			payloads.Append(types.NewString(strings.Repeat("x", i%30)))
		}
		b, err := storage.NewBuilder(def.ID, int32(s), 0, def.Schema(), def.Encodings(), 16)
		if err != nil {
			t.Fatal(err)
		}
		for c, v := range []*types.Vector{ids, payloads} {
			if err := b.Column(c, v); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Finish(true)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AppendSegment(s, seg, 1); err != nil {
			t.Fatal(err)
		}
	}
	cat.UpdateStats(def.ID, catalog.TableStats{Rows: int64(n), Cols: make([]catalog.ColumnStats, 2)})
	return c, cat
}

// tableRows decodes and counts all visible rows of table 1.
func tableRows(t *testing.T, c *cluster.Cluster) int {
	t.Helper()
	total := 0
	for s := 0; s < c.NumSlices(); s++ {
		for _, seg := range c.VisibleSegments(s, 1, 1<<60) {
			for bi := 0; bi < seg.NumBlocks(); bi++ {
				v, err := seg.Block(0, bi).Decode()
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				total += v.Len()
			}
		}
	}
	return total
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	c, cat := fixture(t, 200)
	store := s3sim.New()
	m := New(store, "cluster-a")

	man, stats, err := m.Backup(c, cat, 1, "backup-1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksTotal == 0 || stats.BlocksUploaded != stats.BlocksTotal {
		t.Errorf("first backup stats = %+v", stats)
	}
	if len(man.Tables) != 1 || man.CommitXid != 1 {
		t.Errorf("manifest = %+v", man)
	}

	// Restore into a fresh cluster with a different topology.
	c2, err := cluster.New(cluster.Config{Nodes: 1, SlicesPerNode: 2, BlockCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	cat2, xid, err := m.RestoreMetadata("backup-1", c2)
	if err != nil {
		t.Fatal(err)
	}
	if xid != 1 {
		t.Errorf("restored xid = %d", xid)
	}
	if _, err := cat2.Get("events"); err != nil {
		t.Fatal(err)
	}
	// Database is "open": metadata there, blocks evicted.
	evicted := 0
	c2.AllBlocks(func(b *storage.Block) {
		if !b.Resident() {
			evicted++
		}
	})
	if evicted == 0 {
		t.Fatal("restored blocks should be evicted (streaming restore)")
	}
	// Page-faulting through the cluster fetcher works (single block).
	var one *storage.Block
	c2.AllBlocks(func(b *storage.Block) {
		if one == nil {
			one = b
		}
	})
	if err := c2.FetchBlock(one); err != nil {
		t.Fatal(err)
	}

	// Background restore brings everything down.
	fetched, err := m.BackgroundRestore(c2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fetched != evicted-1 {
		t.Errorf("fetched %d, want %d", fetched, evicted-1)
	}
	if got := tableRows(t, c2); got != 200 {
		t.Errorf("restored rows = %d", got)
	}
}

func TestIncrementalBackupDeduplicates(t *testing.T) {
	c, cat := fixture(t, 100)
	store := s3sim.New()
	m := New(store, "cl")

	_, s1, err := m.Backup(c, cat, 1, "b1")
	if err != nil {
		t.Fatal(err)
	}
	// Second backup with unchanged data: zero uploads.
	_, s2, err := m.Backup(c, cat, 1, "b2")
	if err != nil {
		t.Fatal(err)
	}
	if s2.BlocksUploaded != 0 || s2.BytesUploaded != 0 {
		t.Errorf("second backup uploaded %d blocks", s2.BlocksUploaded)
	}
	if s2.BlocksTotal != s1.BlocksTotal {
		t.Errorf("totals differ: %d vs %d", s2.BlocksTotal, s1.BlocksTotal)
	}
	if got := m.List(); len(got) != 2 || got[0] != "b1" || got[1] != "b2" {
		t.Errorf("List = %v", got)
	}
}

func TestGCReclaimsUnreferencedBlocks(t *testing.T) {
	c, cat := fixture(t, 100)
	store := s3sim.New()
	m := New(store, "cl")
	m.Backup(c, cat, 1, "b1")
	before := store.NumObjects()

	if err := m.Delete("b1"); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := m.GC()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != before-1 { // everything but the (deleted) manifest
		t.Errorf("reclaimed %d of %d", reclaimed, before-1)
	}
	if store.NumObjects() != 0 {
		t.Errorf("%d objects remain", store.NumObjects())
	}
}

func TestGCKeepsSharedBlocks(t *testing.T) {
	c, cat := fixture(t, 100)
	store := s3sim.New()
	m := New(store, "cl")
	m.Backup(c, cat, 1, "b1")
	m.Backup(c, cat, 1, "b2") // shares all blocks
	m.Delete("b1")
	reclaimed, err := m.GC()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 0 {
		t.Errorf("GC reclaimed %d blocks still referenced by b2", reclaimed)
	}
	// b2 must still restore.
	c2, _ := cluster.New(cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 16})
	if _, _, err := m.RestoreMetadata("b2", c2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BackgroundRestore(c2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestCrossRegionDisasterRecovery(t *testing.T) {
	c, cat := fixture(t, 150)
	primary, dr := s3sim.New(), s3sim.New()
	m := New(primary, "cl").WithRemote(dr)
	if _, _, err := m.Backup(c, cat, 1, "b1"); err != nil {
		t.Fatal(err)
	}
	// The primary region burns down; restore from the second region.
	m2 := New(dr, "cl")
	c2, _ := cluster.New(cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 16})
	if _, _, err := m2.RestoreMetadata("b1", c2); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.BackgroundRestore(c2, 2); err != nil {
		t.Fatal(err)
	}
	if got := tableRows(t, c2); got != 150 {
		t.Errorf("DR-restored rows = %d", got)
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	c, cat := fixture(t, 50)
	store := s3sim.New()
	m := New(store, "cl")
	m.Backup(c, cat, 1, "b1")
	// Corrupt one block object.
	for _, key := range store.List("cl/blocks/") {
		store.Corrupt(key)
		break
	}
	c2, _ := cluster.New(cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 16})
	m.RestoreMetadata("b1", c2)
	if _, err := m.BackgroundRestore(c2, 1); err == nil {
		t.Error("corrupt payload restored without error")
	}
}

func TestRestoreMissingManifest(t *testing.T) {
	m := New(s3sim.New(), "cl")
	c, _ := cluster.New(cluster.Config{Nodes: 1, SlicesPerNode: 1})
	if _, _, err := m.RestoreMetadata("nope", c); err == nil {
		t.Error("missing manifest restored")
	}
}
