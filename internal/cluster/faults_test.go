package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/faults"
	"redshift/internal/storage"
)

// snapshotPayloads captures every resident block's payload, simulating the
// backup tier's content-addressed copies.
func snapshotPayloads(c *Cluster) map[storage.BlockID][]byte {
	payloads := map[storage.BlockID][]byte{}
	c.AllBlocks(func(b *storage.Block) {
		if b.Resident() {
			payloads[b.ID] = append([]byte(nil), b.Payload()...)
		}
	})
	return payloads
}

func payloadFetcher(payloads map[storage.BlockID][]byte) func(*storage.Block) ([]byte, error) {
	return func(b *storage.Block) ([]byte, error) {
		p, ok := payloads[b.ID]
		if !ok {
			return nil, fmt.Errorf("backup has no copy of %s", b.ID)
		}
		return p, nil
	}
}

func loadEvenTable(t *testing.T, c *Cluster, rows int) {
	t.Helper()
	def := intTable(catalog.DistEven)
	parts := distribute(c, def, mkRows(rows))
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := c.AppendSegment(s, mkSegment(t, 7, int32(s), part), 1); err != nil {
			t.Fatal(err)
		}
	}
}

// The replacement workflow must survive the worst §2.1 case: the node being
// rebuilt AND its cohort secondary are both gone, so every block comes from
// the S3 backup tier.
func TestRecoverNodeBothReplicasGoneFallsBackToS3(t *testing.T) {
	c := testCluster(t, 2, 2)
	loadEvenTable(t, c, 64)
	c.SetBackupFetcher(payloadFetcher(snapshotPayloads(c)))

	c.FailNode(0)
	c.FailNode(1)

	blocks, bytes, err := c.RecoverNode(1)
	if err != nil {
		t.Fatalf("RecoverNode with both replicas down: %v", err)
	}
	if blocks == 0 || bytes == 0 {
		t.Errorf("recovered %d blocks, %d bytes from backup", blocks, bytes)
	}
	if c.Node(1).Failed() {
		t.Error("node 1 still marked failed")
	}
	if _, _, err := c.RecoverNode(0); err != nil {
		t.Fatalf("recovering node 0 afterwards: %v", err)
	}
	c.AllBlocks(func(b *storage.Block) {
		if !b.Resident() {
			t.Errorf("block %s still evicted after full recovery", b.ID)
		}
	})
}

// Without a backup fetcher the same double failure must produce a clean,
// descriptive error — never a hang or panic.
func TestRecoverNodeBothReplicasGoneNoBackup(t *testing.T) {
	c := testCluster(t, 2, 2)
	loadEvenTable(t, c, 64)
	c.FailNode(0)
	c.FailNode(1)
	_, _, err := c.RecoverNode(1)
	if err == nil {
		t.Fatal("recovery succeeded with no replica anywhere")
	}
	if !strings.Contains(err.Error(), "no replica available") {
		t.Errorf("error %q does not name the failure", err)
	}
}

// Transient injected faults on the secondary-fetch path are retried with
// backoff and reported through the retries counter.
func TestFetchBlockRetriesTransientSecondaryFaults(t *testing.T) {
	c := testCluster(t, 2, 1)
	seg := mkSegment(t, 7, 0, mkRows(8))
	if err := c.AppendSegment(0, seg, 1); err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(&faults.Plan{Seed: 42, Sites: map[string]faults.Rule{
		faults.SiteSecondaryFetch: {Prob: 1, Count: 2, Err: "transient link error"},
	}})
	inj.SetEnabled(true)
	c.SetFaults(inj)

	c.FailNode(0)
	var blk *storage.Block
	seg.Blocks(func(b *storage.Block) {
		if blk == nil {
			blk = b
		}
	})
	retries, err := c.FetchBlockCtx(context.Background(), blk)
	if err != nil {
		t.Fatalf("fetch with transient faults: %v", err)
	}
	if retries != 2 {
		t.Errorf("retries = %d, want 2 (two injected failures before success)", retries)
	}
	if !blk.Resident() {
		t.Error("block not refilled")
	}
}

// A persistently failing secondary is quarantined after the threshold and
// subsequent reads go straight to S3 without burning retries against it.
func TestHealthQuarantineRoutesAroundSickNode(t *testing.T) {
	c := testCluster(t, 2, 1)
	seg := mkSegment(t, 7, 0, mkRows(32))
	if err := c.AppendSegment(0, seg, 1); err != nil {
		t.Fatal(err)
	}
	c.SetBackupFetcher(payloadFetcher(snapshotPayloads(c)))
	inj := faults.NewInjector(&faults.Plan{Seed: 1, Sites: map[string]faults.Rule{
		faults.SiteSecondaryFetch: {Prob: 1, Err: "secondary is sick"},
	}})
	inj.SetEnabled(true)
	c.SetFaults(inj)

	c.FailNode(0)
	var blks []*storage.Block
	seg.Blocks(func(b *storage.Block) { blks = append(blks, b) })
	if len(blks) < defaultQuarantineThreshold+1 {
		t.Fatalf("need more blocks than the quarantine threshold, have %d", len(blks))
	}
	for i, b := range blks {
		if _, err := c.FetchBlockCtx(context.Background(), b); err != nil {
			t.Fatalf("block %d: %v (S3 tier should have masked the sick secondary)", i, err)
		}
	}
	if !c.Health().Quarantined(1) {
		t.Error("persistently failing secondary not quarantined")
	}
	// Once quarantined, the secondary site stops being exercised: injected
	// error count stays flat while remaining blocks still resolve via S3.
	var secInjected int64
	for _, s := range inj.Snapshot() {
		if s.Site == faults.SiteSecondaryFetch {
			secInjected = s.Injected
		}
	}
	// Each pre-quarantine fetch burns MaxAttempts injections; after the
	// threshold crossing the tier is skipped entirely.
	maxExpected := int64(defaultQuarantineThreshold * faults.DefaultPolicy.MaxAttempts)
	if secInjected > maxExpected {
		t.Errorf("secondary site injected %d times, want <= %d (quarantine should stop the bleeding)",
			secInjected, maxExpected)
	}
	// RecoverNode clears the quarantine.
	if _, _, err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	if c.Health().Quarantined(1) {
		t.Error("quarantine survived node recovery")
	}
}

// Synchronous replication that keeps failing must fail the append — a
// committed block may never silently hold fewer copies than promised.
func TestReplicationFaultFailsAppend(t *testing.T) {
	c := testCluster(t, 2, 1)
	inj := faults.NewInjector(&faults.Plan{Seed: 3, Sites: map[string]faults.Rule{
		faults.SiteReplicate: {Prob: 1, Err: "replication link down"},
	}})
	inj.SetEnabled(true)
	c.SetFaults(inj)
	err := c.AppendSegment(0, mkSegment(t, 7, 0, mkRows(8)), 1)
	if err == nil {
		t.Fatal("append committed without its secondary copy")
	}
	if !strings.Contains(err.Error(), "replicating") {
		t.Errorf("error %q does not name replication", err)
	}

	// A bounded glitch, by contrast, is retried through.
	inj.SetRule(faults.SiteReplicate, faults.Rule{Prob: 1, Count: 1, Err: "brief glitch"})
	if err := c.AppendSegment(0, mkSegment(t, 7, 0, mkRows(8)), 2); err != nil {
		t.Fatalf("append with one transient replication failure: %v", err)
	}
}
