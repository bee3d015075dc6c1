// Package cluster implements the data plane topology of §2.1: a cluster of
// compute nodes partitioned into slices (one per core), table shards
// distributed across slices (EVEN round-robin, KEY hash, or ALL
// duplication), synchronous block replication to a secondary node chosen by
// cohort, and transparent read fail-over primary → secondary → S3.
//
// The "network" between nodes is in-process, but every byte that would
// cross a node boundary is accounted, so the co-location and shuffle
// numbers the paper reasons about are measured rather than asserted.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"redshift/internal/faults"
	"redshift/internal/storage"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// TransferKind tags why bytes crossed a node boundary, so telemetry can
// split "the network is busy" into shuffle vs. broadcast vs. replication
// vs. recovery traffic — the attribution §3's monitoring depends on.
type TransferKind uint8

const (
	// TransferShuffle is join/aggregate repartitioning between slices.
	TransferShuffle TransferKind = iota
	// TransferBroadcast is an inner join side replicated to every node.
	TransferBroadcast
	// TransferGather is per-slice results shipped to the leader.
	TransferGather
	// TransferReplication is synchronous secondary block replication.
	TransferReplication
	// TransferRecovery is failure masking: page-fault fail-over reads and
	// node-rebuild traffic.
	TransferRecovery
	numTransferKinds
)

// String names the kind as metrics report it.
func (k TransferKind) String() string {
	switch k {
	case TransferShuffle:
		return "shuffle"
	case TransferBroadcast:
		return "broadcast"
	case TransferGather:
		return "gather"
	case TransferReplication:
		return "replication"
	case TransferRecovery:
		return "recovery"
	default:
		return "unknown"
	}
}

// Config sizes a cluster.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// SlicesPerNode is the number of slices (cores) per node.
	SlicesPerNode int
	// CohortSize groups nodes for replication: a block's secondary copy
	// lives on the next node of the same cohort, bounding how many nodes a
	// failure forces re-replication traffic onto (§2.1 "Cohorting is used
	// to limit the number of slices impacted by an individual disk or node
	// failure").
	CohortSize int
	// BlockCap is rows per block (storage.BlockCap when zero).
	BlockCap int
}

// Validate applies defaults and checks bounds.
func (c *Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster: need at least one node")
	}
	if c.SlicesPerNode < 1 {
		return fmt.Errorf("cluster: need at least one slice per node")
	}
	if c.CohortSize <= 0 {
		c.CohortSize = 2
	}
	if c.BlockCap <= 0 {
		c.BlockCap = storage.BlockCap
	}
	return nil
}

// Node is one compute node.
type Node struct {
	ID     int
	failed atomic.Bool
	mu     sync.RWMutex
	// secondary holds replica payloads for blocks whose primary lives on a
	// cohort peer.
	secondary map[storage.BlockID][]byte
}

// Failed reports whether the node is down.
func (n *Node) Failed() bool { return n.failed.Load() }

// Slice is one unit of parallelism: a share of a node's CPU, memory and
// disk, owning a shard of every table.
type Slice struct {
	ID   int
	Node *Node
	mu   sync.RWMutex
	// shards maps table ID → the slice's segments with commit visibility.
	shards map[int64][]SegmentEntry
}

// SegmentEntry is a segment plus its visibility window: created at Xid,
// superseded at DroppedXid (0 = still live). A write that folds runs,
// VACUUM and TRUNCATE supersede segments without breaking readers that hold
// older snapshots.
type SegmentEntry struct {
	Seg        *storage.Segment
	Xid        int64
	DroppedXid int64
}

// Cluster is the in-process data plane.
type Cluster struct {
	cfg    Config
	nodes  []*Node
	slices []*Slice

	// netBytes counts bytes that crossed a node boundary (shuffles,
	// broadcasts, replication, node rebuilds); kindBytes splits the same
	// total by TransferKind for attribution.
	netBytes  atomic.Int64
	kindBytes [numTransferKinds]atomic.Int64

	// metricBytes, when wired via SetMetrics, mirrors kindBytes into the
	// shared registry as net_<kind>_bytes_total counters (pre-resolved so
	// the hot path never takes the registry lock).
	metricBytes [numTransferKinds]*telemetry.Counter

	// superseded is set while some shard may hold a superseded segment:
	// the prune every commit asks for is one load when none does.
	superseded atomic.Bool

	// rrMu guards per-table round-robin cursors for EVEN distribution.
	rrMu sync.Mutex
	rr   map[int64]int

	// fetchBackup, when set by the backup layer, resolves a block payload
	// from S3 (by content hash) — the third read replica of §2.1.
	fetchBackup func(b *storage.Block) ([]byte, error)

	// inj injects faults at the secondary-fetch, S3-fetch and replication
	// sites (nil-safe).
	inj *faults.Injector

	// health quarantines nodes after repeated read failures so fail-over
	// goes straight to the next replica tier.
	health *HealthTracker

	// mQuarantine counts quarantine transitions (node_quarantine_total).
	mQuarantine *telemetry.Counter
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, rr: map[int64]int{}, health: NewHealthTracker(0)}
	for n := 0; n < cfg.Nodes; n++ {
		node := &Node{ID: n, secondary: map[storage.BlockID][]byte{}}
		c.nodes = append(c.nodes, node)
		for s := 0; s < cfg.SlicesPerNode; s++ {
			c.slices = append(c.slices, &Slice{
				ID:     n*cfg.SlicesPerNode + s,
				Node:   node,
				shards: map[int64][]SegmentEntry{},
			})
		}
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumSlices returns the total slice count.
func (c *Cluster) NumSlices() int { return len(c.slices) }

// EachSlice runs fn for every slice at once — the shape of a write's and of
// ANALYZE's per-slice work — and returns the error of the lowest slice that
// failed.
func (c *Cluster) EachSlice(fn func(slice int) error) error {
	errs := make([]error, len(c.slices))
	var wg sync.WaitGroup
	for s := range c.slices {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Slice returns slice i.
func (c *Cluster) Slice(i int) *Slice { return c.slices[i] }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NetBytes returns the cross-node traffic counter.
func (c *Cluster) NetBytes() int64 { return c.netBytes.Load() }

// NetBytesByKind returns the cross-node traffic attributed to one kind.
func (c *Cluster) NetBytesByKind(kind TransferKind) int64 {
	return c.kindBytes[kind].Load()
}

// ResetNetBytes zeroes the traffic counters (between benchmark phases).
func (c *Cluster) ResetNetBytes() {
	c.netBytes.Store(0)
	for i := range c.kindBytes {
		c.kindBytes[i].Store(0)
	}
}

// SetMetrics mirrors per-kind transfer bytes into a shared registry.
func (c *Cluster) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for k := TransferKind(0); k < numTransferKinds; k++ {
		c.metricBytes[k] = reg.Counter("net_" + k.String() + "_bytes_total")
	}
	c.mQuarantine = reg.Counter("node_quarantine_total")
	c.health.onQuarantine = func(int) { c.mQuarantine.Inc() }
}

// SetFaults attaches the fault injector consulted at the cluster's
// injection sites (nil detaches).
func (c *Cluster) SetFaults(inj *faults.Injector) { c.inj = inj }

// Health exposes the node health tracker.
func (c *Cluster) Health() *HealthTracker { return c.health }

// AccountTransfer records bytes moving between two nodes, attributed to a
// transfer direction; same-node moves are free, like slice-to-slice traffic
// inside a box.
func (c *Cluster) AccountTransfer(fromNode, toNode int, bytes int64, kind TransferKind) {
	if fromNode == toNode {
		return
	}
	c.netBytes.Add(bytes)
	c.kindBytes[kind].Add(bytes)
	if m := c.metricBytes[kind]; m != nil {
		m.Add(bytes)
	}
}

// SetBackupFetcher installs the S3 read path for the third replica.
func (c *Cluster) SetBackupFetcher(f func(b *storage.Block) ([]byte, error)) {
	c.fetchBackup = f
}

// cohortOf returns the replication cohort members of a node.
func (c *Cluster) cohortOf(node int) (lo, hi int) {
	lo = node / c.cfg.CohortSize * c.cfg.CohortSize
	hi = lo + c.cfg.CohortSize
	if hi > len(c.nodes) {
		hi = len(c.nodes)
	}
	return lo, hi
}

// SecondaryNode returns where a primary node's blocks are replicated, or -1
// for a single-node cohort (no replication possible).
func (c *Cluster) SecondaryNode(primary int) int {
	lo, hi := c.cohortOf(primary)
	if hi-lo <= 1 {
		return -1
	}
	next := primary + 1
	if next >= hi {
		next = lo
	}
	return next
}

// TargetSliceKey returns the slice that owns a KEY-distributed row.
func (c *Cluster) TargetSliceKey(distValue types.Value) int {
	h := types.HashValues([]types.Value{distValue})
	return int(h % uint64(len(c.slices)))
}

// AdvanceRoundRobin returns the slice that owns the table's next
// EVEN-distributed row and moves the cursor past n rows: row i of the write
// that asked goes to slice (start + i) mod NumSlices.
func (c *Cluster) AdvanceRoundRobin(tableID int64, n int) (start int) {
	c.rrMu.Lock()
	defer c.rrMu.Unlock()
	start = c.rr[tableID]
	c.rr[tableID] = (start + n) % len(c.slices)
	return start
}

// Install commits one write to a slice's shard: seg, unless nil, is
// registered under xid once it is synchronously replicated (§2.1: "Each data
// block is synchronously written to both its primary slice as well as to at
// least one secondary on a separate node"), and the segments of drop — the
// runs a write folds, VACUUM's inputs, all of a TRUNCATE — are superseded at
// xid: kept with DroppedXid = xid for the snapshots older than the write,
// until PruneDropped reclaims them. A failed replication changes nothing.
func (c *Cluster) Install(sliceID int, seg *storage.Segment, drop []*storage.Segment, xid int64) error {
	if sliceID < 0 || sliceID >= len(c.slices) {
		return fmt.Errorf("cluster: slice %d out of range", sliceID)
	}
	sl := c.slices[sliceID]
	if seg != nil && sl.Node.Failed() {
		return fmt.Errorf("cluster: slice %d is on failed node %d", sliceID, sl.Node.ID)
	}
	if sec := c.SecondaryNode(sl.Node.ID); seg != nil && sec >= 0 {
		// The replica write is itself a fault site: a failed write is
		// retried with backoff, and exhaustion fails the install — the
		// segment must not commit with fewer copies than promised.
		if _, err := faults.DefaultPolicy.Do(context.Background(), func() error {
			return c.inj.Hit(faults.SiteReplicate)
		}); err != nil {
			return fmt.Errorf("cluster: replicating slice %d segment to node %d: %w", sliceID, sec, err)
		}
		secNode := c.nodes[sec]
		secNode.mu.Lock()
		seg.Blocks(func(b *storage.Block) {
			payload := append([]byte(nil), b.Payload()...)
			secNode.secondary[b.ID] = payload
			c.AccountTransfer(sl.Node.ID, sec, int64(len(payload)), TransferReplication)
		})
		secNode.mu.Unlock()
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for _, old := range drop {
		entries := sl.shards[old.Table]
		for i := range entries {
			if entries[i].Seg == old && entries[i].DroppedXid == 0 {
				entries[i].DroppedXid = xid
			}
		}
	}
	if len(drop) > 0 {
		c.superseded.Store(true)
	}
	if seg != nil {
		sl.shards[seg.Table] = append(sl.shards[seg.Table], SegmentEntry{Seg: seg, Xid: xid})
	}
	return nil
}

// RestoreSegment registers a segment without replication — the metadata
// phase of streaming restore, where payloads are still in S3 and will be
// page-faulted or background-fetched later.
func (c *Cluster) RestoreSegment(sliceID int, seg *storage.Segment, xid int64) error {
	if sliceID < 0 || sliceID >= len(c.slices) {
		return fmt.Errorf("cluster: slice %d out of range", sliceID)
	}
	sl := c.slices[sliceID]
	sl.mu.Lock()
	sl.shards[seg.Table] = append(sl.shards[seg.Table], SegmentEntry{Seg: seg, Xid: xid})
	sl.mu.Unlock()
	return nil
}

// VisibleSegments returns the slice's segments of a table committed at or
// before the snapshot xid.
func (c *Cluster) VisibleSegments(sliceID int, tableID, snapshotXid int64) []*storage.Segment {
	sl := c.slices[sliceID]
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	out := make([]*storage.Segment, 0, len(sl.shards[tableID]))
	for _, e := range sl.shards[tableID] {
		if e.Xid <= snapshotXid && (e.DroppedXid == 0 || e.DroppedXid > snapshotXid) {
			out = append(out, e.Seg)
		}
	}
	return out
}

// PruneDropped removes superseded segments no live snapshot can still see
// (oldestActive is the smallest snapshot xid any registered reader or
// writer holds). It returns how many entries were reclaimed.
func (c *Cluster) PruneDropped(oldestActive int64) int {
	// Cleared before the sweep, set again if the sweep leaves anything: a
	// racing Install sets it after this, never before.
	if !c.superseded.Swap(false) {
		return 0
	}
	pruned, left := 0, false
	for _, sl := range c.slices {
		sl.mu.Lock()
		for tableID, entries := range sl.shards {
			kept := entries[:0]
			for _, e := range entries {
				if e.DroppedXid != 0 && e.DroppedXid <= oldestActive {
					c.forgetReplica(sl, e.Seg)
					pruned++
					continue
				}
				left = left || e.DroppedXid != 0
				kept = append(kept, e)
			}
			sl.shards[tableID] = kept
		}
		sl.mu.Unlock()
	}
	if left {
		c.superseded.Store(true)
	}
	return pruned
}

// forgetReplica drops the secondary copies of a segment leaving its slice
// for good; block ids are never reused, so nothing would overwrite them.
func (c *Cluster) forgetReplica(sl *Slice, seg *storage.Segment) {
	sec := c.SecondaryNode(sl.Node.ID)
	if sec < 0 {
		return
	}
	n := c.nodes[sec]
	n.mu.Lock()
	seg.Blocks(func(b *storage.Block) { delete(n.secondary, b.ID) })
	n.mu.Unlock()
}

// DiscardXid removes a table's segments registered under an unpublished
// xid — the rollback path when a write statement fails after registering
// some slices' segments.
func (c *Cluster) DiscardXid(tableID, xid int64) {
	remaining := 0
	for _, sl := range c.slices {
		sl.mu.Lock()
		entries := sl.shards[tableID]
		kept := entries[:0]
		for _, e := range entries {
			if e.Xid == xid {
				c.forgetReplica(sl, e.Seg)
				continue
			}
			if e.DroppedXid == xid {
				e.DroppedXid = 0 // un-drop what the aborted writer superseded
			}
			kept = append(kept, e)
		}
		sl.shards[tableID] = kept
		remaining += len(kept)
		sl.mu.Unlock()
	}
	// A table created by the aborted transaction leaves no segments behind;
	// reclaim its round-robin cursor too.
	if remaining == 0 {
		c.rrMu.Lock()
		delete(c.rr, tableID)
		c.rrMu.Unlock()
	}
}

// DropTable removes a table's shards everywhere, including its EVEN
// round-robin cursor — without that, create/drop churn grows c.rr forever.
func (c *Cluster) DropTable(tableID int64) {
	c.rrMu.Lock()
	delete(c.rr, tableID)
	c.rrMu.Unlock()
	for _, sl := range c.slices {
		sl.mu.Lock()
		delete(sl.shards, tableID)
		sl.mu.Unlock()
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		for id := range n.secondary {
			if id.Table == tableID {
				delete(n.secondary, id)
			}
		}
		n.mu.Unlock()
	}
}

// TableBytes returns the total primary storage a table occupies.
func (c *Cluster) TableBytes(tableID int64) int64 {
	var total int64
	for _, sl := range c.slices {
		sl.mu.RLock()
		for _, e := range sl.shards[tableID] {
			total += e.Seg.ByteSize()
		}
		sl.mu.RUnlock()
	}
	return total
}

// Tables returns the IDs of all tables with data on the cluster.
func (c *Cluster) Tables() []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, sl := range c.slices {
		sl.mu.RLock()
		for id := range sl.shards {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		sl.mu.RUnlock()
	}
	return out
}

// FailNode simulates a node loss: its disks' payloads are gone. Metadata
// (zone maps, hashes, shard lists) survives at the leader, which is what
// lets reads fail over and the replacement workflow rebuild the node.
func (c *Cluster) FailNode(nodeID int) {
	node := c.nodes[nodeID]
	node.failed.Store(true)
	for _, sl := range c.slices {
		if sl.Node == node {
			sl.evict()
		}
	}
	node.mu.Lock()
	node.secondary = map[storage.BlockID][]byte{}
	node.mu.Unlock()
}

// errNoSecondaryCopy marks a fail-over miss that says nothing about the
// secondary node's health.
var errNoSecondaryCopy = errors.New("holds no secondary copy of the block")

// FetchBlock resolves a block payload for a page fault: secondary replica
// first, then the S3 backup ("The primary, secondary and Amazon S3 copies
// of the data block are each available for read, making media failures
// transparent").
func (c *Cluster) FetchBlock(b *storage.Block) error {
	_, _, err := c.fetchBlock(context.Background(), b)
	return err
}

// FetchBlockCtx is the scan path's fetcher: cancellable, and it reports
// how many backoff retries the fail-over needed (EXPLAIN ANALYZE's
// per-scan `retries`).
func (c *Cluster) FetchBlockCtx(ctx context.Context, b *storage.Block) (retries int, err error) {
	_, retries, err = c.fetchBlock(ctx, b)
	return retries, err
}

// fetchBlock resolves a block from the secondary replica, then the S3
// backup, retrying transient failures at each tier with backoff and
// reporting per-node outcomes to the health tracker. It returns the
// bytes moved (so recovery can account its own traffic) and the number
// of retries spent.
func (c *Cluster) fetchBlock(ctx context.Context, b *storage.Block) (int64, int, error) {
	primaryNode := int(b.ID.Slice) / c.cfg.SlicesPerNode
	retries := 0
	var tierErrs []error
	quarantined := false
	if sec := c.SecondaryNode(primaryNode); sec >= 0 {
		secNode := c.nodes[sec]
		switch {
		case secNode.Failed():
			tierErrs = append(tierErrs, fmt.Errorf("secondary node %d is down", sec))
		case c.health.Quarantined(sec):
			quarantined = true
			tierErrs = append(tierErrs, fmt.Errorf("secondary node %d is quarantined", sec))
		default:
			var payload []byte
			attempts, err := faults.DefaultPolicy.Do(ctx, func() error {
				if ferr := c.inj.Hit(faults.SiteSecondaryFetch); ferr != nil {
					return ferr
				}
				secNode.mu.RLock()
				p, ok := secNode.secondary[b.ID]
				secNode.mu.RUnlock()
				if !ok {
					// Missing copy: deterministic, retrying cannot help.
					return faults.Permanent(fmt.Errorf("node %d: %w", sec, errNoSecondaryCopy))
				}
				payload = p
				return nil
			})
			retries += attempts - 1
			if err == nil {
				c.health.ReportSuccess(sec)
				c.AccountTransfer(sec, primaryNode, int64(len(payload)), TransferRecovery)
				return int64(len(payload)), retries, b.Fill(payload)
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return 0, retries, err
			}
			tierErrs = append(tierErrs, fmt.Errorf("secondary node %d: %w", sec, err))
			// Only transient exhaustion (a sick node) counts toward
			// quarantine; a missing copy is bookkeeping, not node health.
			if !errors.Is(err, errNoSecondaryCopy) {
				c.health.ReportFailure(sec)
			}
		}
	}
	if c.fetchBackup != nil {
		var payload []byte
		attempts, err := faults.DefaultPolicy.Do(ctx, func() error {
			if ferr := c.inj.Hit(faults.SiteS3Fetch); ferr != nil {
				return ferr
			}
			p, ferr := c.fetchBackup(b)
			if ferr != nil {
				return ferr
			}
			payload = p
			return nil
		})
		retries += attempts - 1
		if err == nil {
			c.AccountTransfer(-1, primaryNode, int64(len(payload)), TransferRecovery)
			return int64(len(payload)), retries, b.Fill(payload)
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, retries, err
		}
		tierErrs = append(tierErrs, fmt.Errorf("s3 backup: %w", err))
	} else {
		tierErrs = append(tierErrs, errors.New("no s3 backup fetcher installed"))
	}
	err := fmt.Errorf("cluster: block %s: no replica available: %w", b.ID, errors.Join(tierErrs...))
	if quarantined {
		// A quarantine clears on its own (cooldown or node recovery), so the
		// exhausted chain is transient from the client's point of view.
		err = faults.MarkRetryable(err)
	}
	return 0, retries, err
}

// RecoverNode rebuilds a failed node from secondaries and S3 — the
// replacement workflow's data phase. Each block independently fails over
// secondary → S3 (a down or partial cohort secondary does not fail the
// rebuild as long as the backup tier can serve the block). It returns
// the number of blocks restored and the bytes moved.
func (c *Cluster) RecoverNode(nodeID int) (blocks int, bytes int64, err error) {
	node := c.nodes[nodeID]
	for _, sl := range c.slices {
		if sl.Node != node {
			continue
		}
		sl.mu.RLock()
		var all []*storage.Block
		for _, entries := range sl.shards {
			for _, e := range entries {
				e.Seg.Blocks(func(b *storage.Block) {
					if !b.Resident() {
						all = append(all, b)
					}
				})
			}
		}
		sl.mu.RUnlock()
		for _, b := range all {
			n, _, ferr := c.fetchBlock(context.Background(), b)
			bytes += n
			if ferr != nil {
				return blocks, bytes, fmt.Errorf("cluster: rebuilding node %d: %w", nodeID, ferr)
			}
			blocks++
		}
	}
	// Re-establish the node's own secondary copies for its cohort peers.
	bytes += c.reReplicateTo(nodeID)
	node.failed.Store(false)
	// A rebuilt node starts with a clean health record.
	c.health.Reset(nodeID)
	return blocks, bytes, nil
}

// reReplicateTo repopulates nodeID's secondary map from its cohort peers'
// primary blocks, returning the bytes transferred.
func (c *Cluster) reReplicateTo(nodeID int) int64 {
	node := c.nodes[nodeID]
	var bytes int64
	for _, sl := range c.slices {
		if c.SecondaryNode(sl.Node.ID) != nodeID || sl.Node.Failed() {
			continue
		}
		sl.mu.RLock()
		node.mu.Lock()
		for _, entries := range sl.shards {
			for _, e := range entries {
				e.Seg.Blocks(func(b *storage.Block) {
					if b.Resident() {
						node.secondary[b.ID] = append([]byte(nil), b.Payload()...)
						c.AccountTransfer(sl.Node.ID, nodeID, b.ByteSize(), TransferRecovery)
						bytes += b.ByteSize()
					}
				})
			}
		}
		node.mu.Unlock()
		sl.mu.RUnlock()
	}
	return bytes
}

// EvictAll drops every payload on the cluster while keeping metadata — the
// state right after a streaming restore's catalog phase (§2.3).
func (c *Cluster) EvictAll() {
	for _, sl := range c.slices {
		sl.evict()
	}
}

// evict drops every payload on the slice, keeping its metadata.
func (sl *Slice) evict() {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for _, entries := range sl.shards {
		for _, e := range entries {
			e.Seg.Blocks(func(b *storage.Block) { b.Evict() })
		}
	}
}

// AllBlocks visits every primary block on live nodes.
func (c *Cluster) AllBlocks(fn func(*storage.Block)) {
	for _, sl := range c.slices {
		sl.mu.RLock()
		for _, entries := range sl.shards {
			for _, e := range entries {
				e.Seg.Blocks(fn)
			}
		}
		sl.mu.RUnlock()
	}
}
