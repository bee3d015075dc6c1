// Package backup implements the paper's backup/restore design (§2.2, §2.3,
// §3.2): continuous, incremental, block-level backups to the object store
// (content-hash deduplicated, so "user backups leverage the blocks already
// backed up in system backups"), optional second-region disaster-recovery
// copies, and streaming restore — the database opens for SQL after metadata
// and catalog restoration while blocks come down in the background or are
// page-faulted on first touch.
package backup

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// BlockMeta is one block's manifest entry — everything needed to rebuild
// the block skeleton (zone map included) without its payload.
type BlockMeta struct {
	ID       storage.BlockID
	Rows     int
	Min, Max types.Value
	AllNull  bool
	HasNulls bool
	Hash     string // hex content hash, also the object key suffix
	Size     int64
}

// SegmentMeta is one segment's manifest entry.
type SegmentMeta struct {
	Slice  int32
	Seq    int32
	Rows   int
	Cap    int
	Sorted bool
	Xid    int64
	// Cols[c] is column c's block chain.
	Cols [][]BlockMeta
	// Stats are the statistics the segment keeps of its rows, restored with
	// it so that ANALYZE after a restore pages in no block.
	Stats catalog.TableStats
}

// TableMeta groups a table's segments.
type TableMeta struct {
	TableID  int64
	Segments []SegmentMeta
}

// Manifest is one backup: the serialized catalog plus every segment's block
// metadata. Blocks themselves are shared, content-addressed objects.
type Manifest struct {
	ID        string
	CommitXid int64
	// Slices is the source cluster's slice count: a KEY table's rows sit on
	// the slice their key hashes to modulo it.
	Slices  int
	Catalog json.RawMessage
	Tables  []TableMeta
}

// Stats summarizes one backup run.
type Stats struct {
	BlocksTotal    int
	BlocksUploaded int
	BytesTotal     int64
	BytesUploaded  int64
}

// BlockCipher encrypts block payloads and manifests at rest (§3.2: "All
// user data, including backups, is encrypted"). The aad binds each
// ciphertext to its identity so objects cannot be swapped.
type BlockCipher interface {
	Seal(aad, plaintext []byte) ([]byte, error)
	Open(aad, envelope []byte) ([]byte, error)
}

// Manager drives backups and restores for one cluster against an object
// store region, with an optional DR region.
type Manager struct {
	store  *s3sim.Store
	remote *s3sim.Store
	prefix string
	cipher BlockCipher
}

// New returns a manager writing under prefix (the cluster identifier).
func New(store *s3sim.Store, prefix string) *Manager {
	return &Manager{store: store, prefix: prefix}
}

// WithRemote enables second-region DR copies (§3.2: "that only requires
// setting a checkbox and specifying the region").
func (m *Manager) WithRemote(remote *s3sim.Store) *Manager {
	m.remote = remote
	return m
}

// WithCipher enables at-rest encryption of every stored object.
func (m *Manager) WithCipher(c BlockCipher) *Manager {
	m.cipher = c
	return m
}

// sealFor encrypts data when a cipher is configured.
func (m *Manager) sealFor(aad string, data []byte) ([]byte, error) {
	if m.cipher == nil {
		return data, nil
	}
	return m.cipher.Seal([]byte(aad), data)
}

// openFor decrypts data when a cipher is configured.
func (m *Manager) openFor(aad string, data []byte) ([]byte, error) {
	if m.cipher == nil {
		return data, nil
	}
	return m.cipher.Open([]byte(aad), data)
}

func (m *Manager) blockKey(hash string) string {
	return m.prefix + "/blocks/" + hash
}

func (m *Manager) manifestKey(id string) string {
	return m.prefix + "/manifests/" + id
}

// Backup takes an incremental, block-level backup of everything visible at
// xid. Only blocks whose content hash is not yet in the store are uploaded.
func (m *Manager) Backup(c *cluster.Cluster, cat *catalog.Catalog, xid int64, id string) (*Manifest, Stats, error) {
	var stats Stats
	catBytes, err := cat.Marshal()
	if err != nil {
		return nil, stats, fmt.Errorf("backup: catalog: %w", err)
	}
	man := &Manifest{ID: id, CommitXid: xid, Slices: c.NumSlices(), Catalog: catBytes}

	byTable := map[int64]*TableMeta{}
	for _, tableID := range c.Tables() {
		byTable[tableID] = &TableMeta{TableID: tableID}
	}
	for s := 0; s < c.NumSlices(); s++ {
		for tableID, tm := range byTable {
			for _, seg := range c.VisibleSegments(s, tableID, xid) {
				sm := SegmentMeta{
					Slice:  int32(s),
					Seq:    seg.Seq,
					Rows:   seg.Rows,
					Cap:    seg.Cap,
					Sorted: seg.Sorted,
					Xid:    xid,
					Cols:   make([][]BlockMeta, len(seg.Cols)),
					Stats:  seg.Stats,
				}
				for col, chain := range seg.Cols {
					for _, b := range chain {
						if !b.Resident() {
							return nil, stats, fmt.Errorf("backup: block %s not resident", b.ID)
						}
						hash := hex.EncodeToString(b.Hash[:])
						stats.BlocksTotal++
						stats.BytesTotal += b.ByteSize()
						key := m.blockKey(hash)
						if !m.store.Exists(key) {
							payload, err := m.sealFor(hash, b.Payload())
							if err != nil {
								return nil, stats, err
							}
							if err := m.store.Put(key, payload); err != nil {
								return nil, stats, err
							}
							stats.BlocksUploaded++
							stats.BytesUploaded += b.ByteSize()
						}
						sm.Cols[col] = append(sm.Cols[col], BlockMeta{
							ID:       b.ID,
							Rows:     b.Rows,
							Min:      b.Zone.Min,
							Max:      b.Zone.Max,
							AllNull:  b.Zone.AllNull,
							HasNulls: b.Zone.HasNulls,
							Hash:     hash,
							Size:     b.ByteSize(),
						})
					}
				}
				tm.Segments = append(tm.Segments, sm)
			}
		}
	}
	for _, tm := range byTable {
		man.Tables = append(man.Tables, *tm)
	}
	sort.Slice(man.Tables, func(i, j int) bool { return man.Tables[i].TableID < man.Tables[j].TableID })

	manBytes, err := json.Marshal(man)
	if err != nil {
		return nil, stats, fmt.Errorf("backup: manifest: %w", err)
	}
	sealed, err := m.sealFor("manifest/"+id, manBytes)
	if err != nil {
		return nil, stats, err
	}
	if err := m.store.Put(m.manifestKey(id), sealed); err != nil {
		return nil, stats, err
	}
	if m.remote != nil {
		if _, err := m.store.CopyTo(m.remote, m.prefix+"/"); err != nil {
			return nil, stats, fmt.Errorf("backup: cross-region copy: %w", err)
		}
	}
	return man, stats, nil
}

// LoadManifest reads a backup's manifest.
func (m *Manager) LoadManifest(id string) (*Manifest, error) {
	data, err := m.store.Get(m.manifestKey(id))
	if err != nil {
		return nil, fmt.Errorf("backup: manifest %s: %w", id, err)
	}
	if data, err = m.openFor("manifest/"+id, data); err != nil {
		return nil, fmt.Errorf("backup: manifest %s: %w", id, err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("backup: corrupt manifest %s: %w", id, err)
	}
	return &man, nil
}

// List returns the available backup IDs.
func (m *Manager) List() []string {
	keys := m.store.List(m.prefix + "/manifests/")
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k[len(m.prefix+"/manifests/"):]
	}
	return out
}

// Delete removes a backup's manifest (blocks are reclaimed by GC).
func (m *Manager) Delete(id string) error {
	return m.store.Delete(m.manifestKey(id))
}

// GC deletes block objects referenced by no remaining manifest and returns
// how many were reclaimed — the automatic aging-out of system backups.
func (m *Manager) GC() (int, error) {
	live := map[string]bool{}
	for _, id := range m.List() {
		man, err := m.LoadManifest(id)
		if err != nil {
			return 0, err
		}
		for _, tm := range man.Tables {
			for _, sm := range tm.Segments {
				for _, chain := range sm.Cols {
					for _, bm := range chain {
						live[bm.Hash] = true
					}
				}
			}
		}
	}
	reclaimed := 0
	for _, key := range m.store.List(m.prefix + "/blocks/") {
		hash := key[len(m.prefix+"/blocks/"):]
		if !live[hash] {
			if err := m.store.Delete(key); err != nil {
				return reclaimed, err
			}
			reclaimed++
		}
	}
	return reclaimed, nil
}

// RestoreMetadata rebuilds the catalog and every segment skeleton (zone
// maps, hashes, row counts — payloads evicted) into the target cluster and
// installs the page-fault fetcher. After it returns, the database is open
// for SQL: this is the streaming-restore point the paper highlights
// ("allowing the database to be opened for SQL operations after metadata
// and catalog restoration").
//
// The target cluster may have a different shape than the source. A
// DISTSTYLE ALL table's first copy goes to every target node; every other
// segment is remapped slice-by-slice modulo the new slice count, as the
// restore-to-new-cluster workflow does. That leaves a DISTSTYLE KEY table's
// rows off the slices their keys hash to when the count changed, so those
// tables are returned as misplaced: the caller re-places them through the
// loader's placement.
func (m *Manager) RestoreMetadata(id string, c *cluster.Cluster) (cat *catalog.Catalog, xid int64, misplaced []string, err error) {
	man, err := m.LoadManifest(id)
	if err != nil {
		return nil, 0, nil, err
	}
	if cat, err = catalog.Unmarshal(man.Catalog); err != nil {
		return nil, 0, nil, err
	}
	for _, tm := range man.Tables {
		def, err := cat.GetByID(tm.TableID)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("backup: manifest references unknown table %d", tm.TableID)
		}
		if def.DistStyle == catalog.DistKey && man.Slices != c.NumSlices() {
			misplaced = append(misplaced, def.Name)
		}
		schema := def.Schema()
		for _, sm := range tm.Segments {
			targets := []int{int(sm.Slice) % c.NumSlices()}
			if def.DistStyle == catalog.DistAll {
				// One copy per node, on its first slice: node 0's copy (the
				// first slice's) goes to every node of the target.
				if sm.Slice != 0 {
					continue
				}
				targets = targets[:0]
				for sl := 0; sl < c.NumSlices(); sl += c.Config().SlicesPerNode {
					targets = append(targets, sl)
				}
			}
			for _, target := range targets {
				seg := &storage.Segment{
					Table:  tm.TableID,
					Slice:  int32(target),
					Seq:    sm.Seq,
					Rows:   sm.Rows,
					Cap:    sm.Cap,
					Schema: schema,
					Sorted: sm.Sorted,
					Cols:   make([][]*storage.Block, len(sm.Cols)),
					Stats:  sm.Stats,
				}
				for col, chain := range sm.Cols {
					for _, bm := range chain {
						hashBytes, err := hex.DecodeString(bm.Hash)
						if err != nil || len(hashBytes) != 32 {
							return nil, 0, nil, fmt.Errorf("backup: corrupt block hash %q", bm.Hash)
						}
						blk := &storage.Block{
							ID:   bm.ID,
							Rows: bm.Rows,
							Zone: storage.ZoneMap{Min: bm.Min, Max: bm.Max, AllNull: bm.AllNull, HasNulls: bm.HasNulls},
						}
						if def.DistStyle == catalog.DistAll {
							blk.ID.Slice = int32(target) // each node's copy names its own blocks
						}
						copy(blk.Hash[:], hashBytes)
						seg.Cols[col] = append(seg.Cols[col], blk)
					}
				}
				if err := c.RestoreSegment(target, seg, sm.Xid); err != nil {
					return nil, 0, nil, err
				}
			}
		}
	}
	c.SetBackupFetcher(m.FetchPayload)
	return cat, man.CommitXid, misplaced, nil
}

// FetchPayload resolves one block's payload from the object store by
// content hash — the page-fault read path.
func (m *Manager) FetchPayload(b *storage.Block) ([]byte, error) {
	hash := hex.EncodeToString(b.Hash[:])
	data, err := m.store.Get(m.blockKey(hash))
	if err != nil {
		return nil, err
	}
	return m.openFor(hash, data)
}

// BackgroundRestore fetches every non-resident block with the given
// parallelism — the background phase of streaming restore. It returns the
// number of blocks fetched.
func (m *Manager) BackgroundRestore(c *cluster.Cluster, parallelism int) (int, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	var pending []*storage.Block
	c.AllBlocks(func(b *storage.Block) {
		if !b.Resident() {
			pending = append(pending, b)
		}
	})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		fetched  int
	)
	work := make(chan *storage.Block)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				// A transient object-store hiccup must not abort the whole
				// background restore; retry with backoff before giving up.
				_, err := faults.DefaultPolicy.Do(context.Background(), func() error {
					payload, ferr := m.FetchPayload(b)
					if ferr != nil {
						return ferr
					}
					return b.Fill(payload)
				})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					fetched++
				}
				mu.Unlock()
			}
		}()
	}
	for _, b := range pending {
		work <- b
	}
	close(work)
	wg.Wait()
	return fetched, firstErr
}
