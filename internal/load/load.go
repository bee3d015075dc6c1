// Package load implements the COPY data path of §2.1: "COPY is parallelized
// across slices, with each slice reading data in parallel, distributing as
// needed, and sorting locally. By default, compression scheme and optimizer
// statistics are updated with load."
//
// Sources are objects in the simulated object store (CSV with a
// configurable delimiter, or newline-delimited JSON, optionally gzipped).
// Distribution follows the table's DISTSTYLE; local sort follows its
// SORTKEY — compound lexicographic or interleaved z-order.
//
// It is the one write path (DESIGN.md "Write path"): COPY, INSERT and VACUUM
// all move Columns — typed column vectors — from their source to the
// SegmentWriter, never a boxed row; each run it seals keeps its statistics,
// which ANALYZE merges.
package load

import (
	"context"
	"fmt"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/s3sim"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// Options mirror the COPY clauses.
type Options struct {
	// Format is "CSV" (default) or "JSON" (newline-delimited objects).
	Format string
	// Delimiter for CSV; '|' when zero (the PostgreSQL COPY text default).
	Delimiter rune
	// CompUpdate: nil = automatic (choose encodings when the table is
	// empty), true = always re-choose, false = never.
	CompUpdate *bool
	// StatUpdate: nil/true = update optimizer statistics, false = skip.
	StatUpdate *bool
	// GZip marks source objects as gzip-compressed.
	GZip bool
}

// Stats reports what one COPY or INSERT did.
type Stats struct {
	Rows         int64
	Objects      int
	BytesRead    int64
	Segments     int
	EncodingsSet bool
	// BytesWritten is the encoded size of the segments registered.
	BytesWritten int64
	// Delta is what the write adds to the table's statistics, for the caller
	// to publish once the write commits; nil when it adds nothing.
	Delta *catalog.TableStats
}

// Columns is a run of rows held column-wise: one vector per table column,
// all of one length.
type Columns []*types.Vector

// Rows returns the number of rows held.
func (cs Columns) Rows() int {
	if len(cs) == 0 {
		return 0
	}
	return cs[0].Len()
}

// NewColumns returns empty Columns for def's rows, room for capacity made.
func NewColumns(def *catalog.TableDef, capacity int) Columns {
	cs := make(Columns, len(def.Columns))
	for i, col := range def.Columns {
		cs[i] = types.NewVector(col.Type, capacity)
	}
	return cs
}

// Chunk is part of one slice's share of a write: the rows Sel of Cols, in
// that order — every row when Sel is nil. Chunks are only read, so the
// slices of a write can share their Cols.
type Chunk struct {
	Cols Columns
	Sel  []int
}

// Run executes COPY table FROM prefix. Rows become one new sorted segment
// per slice (see Append), committed under xid; the phases are recorded under trace. Once
// ctx is done no further object is fetched, and Run returns ctx's error.
func Run(ctx context.Context, c *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef,
	store *s3sim.Store, prefix string, opts Options, xid int64, trace *telemetry.Span) (Stats, error) {

	keys := store.List(prefix)
	if len(keys) == 0 {
		return Stats{}, fmt.Errorf("load: no objects under %q", prefix)
	}

	// Phase 1: parallel parse — one worker per slice, like the paper's
	// "each slice reading data in parallel".
	parse := trace.StartChild("parse")
	objects, bytesRead, err := readObjects(ctx, c.NumSlices(), store, keys, def, opts)
	parse.End()
	if err != nil {
		return Stats{}, err
	}
	stats, err := Append(c, cat, def, objects, opts, xid, trace)
	stats.Objects, stats.BytesRead = len(keys), bytesRead
	parse.Add("rows", stats.Rows)
	parse.Add("bytes", bytesRead)
	return stats, err
}

// Append is the write path COPY, INSERT and a resize's table copy share: it
// distributes the sources' rows (sources in the order given, rows in each
// source's), sorts and encodes each slice's share together with the small
// runs it folds (see write), installs each slice's new run in their place
// and merges the statistics delta from the slices' shares. Of the Stats it
// fills in Rows, Segments, BytesWritten, EncodingsSet and Delta.
func Append(c *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef,
	sources []Columns, opts Options, xid int64, trace *telemetry.Span) (stats Stats, err error) {

	total := 0
	for _, cols := range sources {
		if len(cols) != len(def.Columns) {
			return stats, fmt.Errorf("load: source has %d columns, table has %d", len(cols), len(def.Columns))
		}
		total += cols.Rows()
	}
	stats.Rows = int64(total)
	if total == 0 {
		return stats, nil
	}
	tableStats, err := cat.Stats(def.ID)
	if err != nil {
		return stats, err
	}
	start := time.Now()

	// Automatic compression selection: on first load into an empty table
	// unless explicitly disabled — the dusty knob of §3.3.
	chooseEnc := tableStats.Rows == 0
	if opts.CompUpdate != nil {
		chooseEnc = *opts.CompUpdate
	}
	if chooseEnc {
		if err := chooseEncodings(cat, def, sources); err != nil {
			return stats, err
		}
		stats.EncodingsSet = true
	}

	// Distribute per DISTSTYLE, then sort and encode each slice's share.
	shares := distribute(c, def, sources, total)
	for ci, col := range def.Columns {
		for _, cols := range sources {
			if col.NotNull && cols[ci].HasNulls() {
				return stats, fmt.Errorf("load: null value in NOT NULL column %s", col.Name)
			}
		}
	}
	parts, unsorted, err := write(context.Background(), c, cat, def, sources, shares, xid, trace, start, &stats)
	if err != nil {
		return stats, err
	}

	// Statistics update with load (§2.1), unless disabled: the merge of the
	// slices' shares' statistics, which write hashed — on the first node's
	// slices only for DISTSTYLE ALL. The delta's sketches are its own: a run
	// whose statistics are its share's shares theirs.
	if opts.StatUpdate == nil || *opts.StatUpdate {
		span := trace.StartChild("stats")
		delta := NewStatsBuilder(len(def.Columns)).stats
		delta.UnsortedRows = unsorted
		for _, part := range parts {
			if delta.Merge(part); def.DistStyle == catalog.DistAll {
				break // slice 0 holds the first node's copy
			}
		}
		span.Add("rows", delta.Rows)
		span.End()
		stats.Delta = &delta
	}
	return stats, nil
}

// distribute deals the sources' rows to slices per the table's DISTSTYLE —
// by the hash of the distribution key, or round-robin from the table's
// cursor (row i of the write's total rows goes to slice cursor+i) — as one
// chunk per source and slice, so each slice's rows keep the order the
// sources list them in. For DistAll every node receives the full row set
// (on its first slice).
func distribute(c *cluster.Cluster, def *catalog.TableDef, sources []Columns, total int) [][]Chunk {
	n := c.NumSlices()
	parts := make([][]Chunk, n)
	at := 0
	if def.DistStyle == catalog.DistEven {
		at = c.AdvanceRoundRobin(def.ID, total)
	}
	for _, cols := range sources {
		if def.DistStyle == catalog.DistAll {
			for s := 0; s < n; s += c.Config().SlicesPerNode {
				parts[s] = append(parts[s], Chunk{Cols: cols})
			}
			continue
		}
		rows := cols.Rows()
		sels := make([][]int, n)
		for i := 0; i < rows; i++ {
			s := (at + i) % n
			if def.DistStyle == catalog.DistKey {
				s = c.TargetSliceKey(cols[def.DistKeyCol].Get(i))
			}
			if sels[s] == nil {
				sels[s] = make([]int, 0, rows/n+rows/(8*n)+8)
			}
			sels[s] = append(sels[s], i)
		}
		at += rows
		for s, sel := range sels {
			if sel != nil {
				parts[s] = append(parts[s], Chunk{Cols: cols, Sel: sel})
			}
		}
	}
	return parts
}

// sampleRows is how much of a write the compression analyzer looks at: its
// first four blocks' worth of rows, in the order the sources list them.
const sampleRows = 4 * 4096

// chooseEncodings sets each auto column's encoding to the analyzer's pick
// for the write's first sampleRows rows.
func chooseEncodings(cat *catalog.Catalog, def *catalog.TableDef, sources []Columns) error {
	const sampleMax = 4096
	for ci, col := range def.Columns {
		if !col.AutoEncoding {
			continue
		}
		// Build the column for the sampled rows, then let the analyzer's
		// contiguous sampler pick its regions.
		vec := types.NewVector(col.Type, sampleMax)
		for _, cols := range sources {
			vec.AppendRange(cols[ci], 0, min(sampleRows-vec.Len(), cols[ci].Len()))
		}
		enc := compress.Choose(compress.Sample(vec, sampleMax))
		if err := cat.SetEncoding(def.ID, ci, enc); err != nil {
			return err
		}
	}
	return nil
}
