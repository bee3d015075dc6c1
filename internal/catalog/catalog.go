// Package catalog implements the system catalog: table definitions with
// their distribution and sort configuration (§2.1 — the "main things set by
// a customer" per §3.3), per-column encodings (set automatically by default,
// a "dusty knob"), and the table statistics that feed the optimizer.
package catalog

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"redshift/internal/compress"
	"redshift/internal/hll"
	"redshift/internal/types"
)

// DistStyle is how a table's rows are distributed across slices (§2.1:
// "round robin fashion, hashed according to a distribution key, or
// duplicated on all slices").
type DistStyle uint8

const (
	// DistEven distributes rows round-robin.
	DistEven DistStyle = iota
	// DistKey distributes rows by hash of the distribution key, enabling
	// co-located joins on that key.
	DistKey
	// DistAll duplicates the table on every node.
	DistAll
)

// String returns the DISTSTYLE name.
func (d DistStyle) String() string {
	switch d {
	case DistEven:
		return "EVEN"
	case DistKey:
		return "KEY"
	case DistAll:
		return "ALL"
	default:
		return fmt.Sprintf("DISTSTYLE(%d)", uint8(d))
	}
}

// SortStyle is how a table's sort key orders rows within each slice.
type SortStyle uint8

const (
	// SortNone leaves rows in load order.
	SortNone SortStyle = iota
	// SortCompound orders by the sort key columns lexicographically.
	SortCompound
	// SortInterleaved orders by the multidimensional z-curve over the sort
	// key columns (§3.3's graceful-degradation alternative to projections).
	SortInterleaved
)

// String returns the SORTKEY style name.
func (s SortStyle) String() string {
	switch s {
	case SortNone:
		return "NONE"
	case SortCompound:
		return "COMPOUND"
	case SortInterleaved:
		return "INTERLEAVED"
	default:
		return fmt.Sprintf("SORTSTYLE(%d)", uint8(s))
	}
}

// ColumnDef is a table column plus its physical configuration.
type ColumnDef struct {
	Name    string
	Type    types.Type
	NotNull bool
	// Encoding is the block codec for the column.
	Encoding compress.Encoding
	// AutoEncoding records that the encoding was (or will be) chosen by
	// sampling rather than by the user — the knob is still dusty.
	AutoEncoding bool
}

// TableDef describes one table.
type TableDef struct {
	ID        int64
	Name      string
	Columns   []ColumnDef
	DistStyle DistStyle
	// DistKeyCol is the distribution key column ordinal; -1 when DistStyle
	// is not DistKey.
	DistKeyCol int
	SortStyle  SortStyle
	// SortKeyCols are the sort key column ordinals, in declaration order.
	SortKeyCols []int
}

// Schema returns the logical schema of the table.
func (t *TableDef) Schema() types.Schema {
	cols := make([]types.Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = types.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
	}
	return types.NewSchema(cols...)
}

// Encodings returns the per-column encodings in order.
func (t *TableDef) Encodings() []compress.Encoding {
	encs := make([]compress.Encoding, len(t.Columns))
	for i, c := range t.Columns {
		encs[i] = c.Encoding
	}
	return encs
}

// Ordinal returns the position of the named column, or -1.
func (t *TableDef) Ordinal(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Validate checks internal consistency of the definition.
func (t *TableDef) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table has no name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %s has no columns", t.Name)
	}
	seen := map[string]bool{}
	for _, c := range t.Columns {
		key := strings.ToLower(c.Name)
		if seen[key] {
			return fmt.Errorf("catalog: table %s: duplicate column %s", t.Name, c.Name)
		}
		seen[key] = true
		if c.Type == types.Invalid {
			return fmt.Errorf("catalog: table %s: column %s has invalid type", t.Name, c.Name)
		}
		if !compress.Applicable(c.Encoding, c.Type) {
			return fmt.Errorf("catalog: table %s: column %s: encoding %s not applicable to %s",
				t.Name, c.Name, c.Encoding, c.Type)
		}
	}
	if t.DistStyle == DistKey {
		if t.DistKeyCol < 0 || t.DistKeyCol >= len(t.Columns) {
			return fmt.Errorf("catalog: table %s: distkey ordinal %d out of range", t.Name, t.DistKeyCol)
		}
	} else if t.DistKeyCol != -1 {
		return fmt.Errorf("catalog: table %s: distkey set without DISTSTYLE KEY", t.Name)
	}
	if t.SortStyle == SortNone && len(t.SortKeyCols) > 0 {
		return fmt.Errorf("catalog: table %s: sortkey columns without a sort style", t.Name)
	}
	if t.SortStyle != SortNone && len(t.SortKeyCols) == 0 {
		return fmt.Errorf("catalog: table %s: sort style without sortkey columns", t.Name)
	}
	if t.SortStyle == SortInterleaved && len(t.SortKeyCols) > 8 {
		return fmt.Errorf("catalog: table %s: interleaved sortkey limited to 8 columns", t.Name)
	}
	for _, k := range t.SortKeyCols {
		if k < 0 || k >= len(t.Columns) {
			return fmt.Errorf("catalog: table %s: sortkey ordinal %d out of range", t.Name, k)
		}
	}
	return nil
}

// ColumnStats summarizes one column for the optimizer and the zone-map-aware
// planner: bounds, null count, a distinct-value estimate and the average
// value width.
type ColumnStats struct {
	Min, Max  types.Value
	NullCount int64
	// NDV is the estimated number of distinct values (HyperLogLog).
	NDV int64
	// Sketch is the HLL sketch behind NDV. Keeping the sketch lets
	// per-slice statistics merge losslessly: unioning registers estimates the
	// distinct count of the union, where taking the max of per-slice NDVs
	// collapses a hash-distributed column to a one-slice lower bound
	// (~NDV/slices). A backup stores it as base64 text.
	Sketch *hll.Sketch `json:",omitempty"`
	// WidthSum is the total byte width of the column's non-null values
	// (8 for fixed-width types, len(s) for strings); WidthSum/(rows-nulls)
	// is the average row width the cost model prices data movement with.
	WidthSum int64
}

// NullFrac returns the fraction of NULLs given the table's row count.
func (c *ColumnStats) NullFrac(rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	return float64(c.NullCount) / float64(rows)
}

// AvgWidth returns the average non-null value width in bytes, or def when
// the column has no recorded widths (pre-upgrade stats, all-NULL column).
func (c *ColumnStats) AvgWidth(rows int64, def float64) float64 {
	nonNull := rows - c.NullCount
	if c.WidthSum <= 0 || nonNull <= 0 {
		return def
	}
	return float64(c.WidthSum) / float64(nonNull)
}

// TableStats summarizes a table. Stats update automatically on COPY (§2.1:
// "optimizer statistics are updated with load").
//
// A TableStats the catalog publishes is an immutable snapshot that every
// reader shares: a bound plan, a load and the maintenance pass all hold the
// same value, and nobody writes through it. A change publishes a new value.
type TableStats struct {
	Rows int64
	Cols []ColumnStats
	// UnsortedRows counts rows loaded after the last sort boundary; a large
	// unsorted fraction is the signal for automatic table maintenance
	// (§3.2 future work: the database "take[s] action to correct itself").
	UnsortedRows int64
}

// Merge folds other into s column-wise: slices' statistics into a table's,
// and a table's published snapshot into a delta (UpdateStats). Two sketches
// union register by register into s's own, which forgets both NDVs: the
// union's estimate replaces them. A side without a sketch contributes its
// NDV as a lower bound, and a sketch only other has is copied.
//
// Merge writes only sketches s owns, so a published snapshot's registers are
// never written again. It estimates nothing: a sketched column's NDV is only
// a lower bound until EstimateNDV runs where the result is published.
func (s *TableStats) Merge(other TableStats) {
	s.Rows += other.Rows
	s.UnsortedRows += other.UnsortedRows
	if len(s.Cols) == 0 {
		s.Cols = make([]ColumnStats, len(other.Cols))
	}
	for i := range min(len(s.Cols), len(other.Cols)) {
		c, o := &s.Cols[i], other.Cols[i]
		c.NullCount += o.NullCount
		c.WidthSum += o.WidthSum
		if o.Min.T != types.Invalid && (c.Min.T == types.Invalid || types.Compare(o.Min, c.Min) < 0) {
			c.Min = o.Min
		}
		if o.Max.T != types.Invalid && (c.Max.T == types.Invalid || types.Compare(o.Max, c.Max) > 0) {
			c.Max = o.Max
		}
		c.NDV = max(c.NDV, o.NDV)
		if c.Sketch != nil && o.Sketch != nil {
			c.Sketch.Merge(o.Sketch)
			c.NDV = 0
		} else if o.Sketch != nil {
			sk := *o.Sketch
			c.Sketch = &sk
		}
	}
}

// EstimateNDV derives each sketched column's NDV from its registers, keeping
// a larger lower bound that a sketch-less side contributed. It is the one
// place an NDV is estimated: UpdateStats and ReplaceStats call it as they
// publish. A published snapshot's NDV is already at least its estimate, so
// republishing one (VACUUM's) writes nothing to the Cols it shares.
func (s *TableStats) EstimateNDV() {
	for i := range s.Cols {
		if c := &s.Cols[i]; c.Sketch != nil {
			if e := c.Sketch.Estimate(); e > c.NDV {
				c.NDV = e
			}
		}
	}
}

// Catalog is the leader node's table registry. It is safe for concurrent
// use. TableDef contents are immutable after Create; the one piece of
// mutable physical design — current per-column encodings, which COPY's
// sampling updates — lives in the catalog's own locked map so readers
// copying definitions never race a chooser.
type Catalog struct {
	mu     sync.RWMutex
	byName map[string]*TableDef
	byID   map[int64]*TableDef
	stats  map[int64]*TableStats
	// encodings holds each table's CURRENT column encodings (initialized
	// from the definition, updated by automatic selection).
	encodings map[int64][]compress.Encoding
	nextID    int64

	// version is the global catalog version: a monotonic counter bumped by
	// every DDL change (Create, Drop). Cached query plans carry the version
	// they were bound under, so any schema change invalidates them by
	// simple integer mismatch — no eviction scan.
	version int64
	// dataVer is each table's data version, bumped by every committed data
	// mutation (COPY, INSERT, TRUNCATE, VACUUM) and by ANALYZE (statistics
	// feed plans, so stats refreshes must also invalidate cached plans).
	// Result-cache entries key on these, giving precise staleness checks.
	dataVer map[int64]int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		byName:    map[string]*TableDef{},
		byID:      map[int64]*TableDef{},
		stats:     map[int64]*TableStats{},
		encodings: map[int64][]compress.Encoding{},
		dataVer:   map[int64]int64{},
		nextID:    1,
		version:   1,
	}
}

// Version returns the global catalog version. It starts at 1 and increases
// on every DDL change; equal versions guarantee identical schemas.
func (c *Catalog) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// DataVersion returns the table's data version (0 for an unknown table; a
// freshly created table starts at 1). Two reads returning the same value
// bracket a window with no committed mutation of the table.
func (c *Catalog) DataVersion(id int64) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dataVer[id]
}

// BumpDataVersion records a committed data mutation (or statistics refresh)
// of the table. Callers bump AFTER the transaction publishes, so a result
// cached under version v can never contain less data than v's bumps —
// a version-matched cache hit is therefore never stale.
func (c *Catalog) BumpDataVersion(id int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byID[id]; ok {
		c.dataVer[id]++
	}
}

// Create validates and registers a table, assigning its ID.
func (c *Catalog) Create(def *TableDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(def.Name)
	if _, ok := c.byName[key]; ok {
		return fmt.Errorf("catalog: table %s already exists", def.Name)
	}
	def.ID = c.nextID
	if err := def.Validate(); err != nil {
		return err
	}
	c.nextID++
	c.byName[key] = def
	c.byID[def.ID] = def
	c.stats[def.ID] = &TableStats{Cols: make([]ColumnStats, len(def.Columns))}
	c.encodings[def.ID] = def.Encodings()
	c.dataVer[def.ID] = 1
	c.version++
	return nil
}

// Drop removes a table by name.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	def, ok := c.byName[key]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.byName, key)
	delete(c.byID, def.ID)
	delete(c.stats, def.ID)
	delete(c.encodings, def.ID)
	delete(c.dataVer, def.ID)
	c.version++
	return nil
}

// Get returns the table by name, or an error naming the table.
func (c *Catalog) Get(name string) (*TableDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.byName[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s does not exist", name)
	}
	return def, nil
}

// GetByID returns the table by ID.
func (c *Catalog) GetByID(id int64) (*TableDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("catalog: table id %d does not exist", id)
	}
	return def, nil
}

// List returns all table definitions, sorted by name.
func (c *Catalog) List() []*TableDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TableDef, 0, len(c.byName))
	for _, def := range c.byName {
		out = append(out, def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns the table's published statistics: a snapshot shared with
// every other reader, which callers must not write to.
func (c *Catalog) Stats(id int64) (*TableStats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.stats[id]
	if !ok {
		return nil, fmt.Errorf("catalog: no stats for table id %d", id)
	}
	return s, nil
}

// UpdateStats folds a statistics delta into the table's stats. It takes
// ownership of delta: the current snapshot is merged into it, and it is
// published in the current one's place.
func (c *Catalog) UpdateStats(id int64, delta TableStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.stats[id]
	if !ok {
		return fmt.Errorf("catalog: no stats for table id %d", id)
	}
	for i := range delta.Cols {
		// A column whose statistics predate sketches stays a max-NDV lower
		// bound: the delta's sketch covers only the new rows, so it is
		// estimated and dropped rather than kept for later unions.
		if d := &delta.Cols[i]; d.Sketch != nil && i < len(cur.Cols) && cur.Cols[i].Sketch == nil && cur.Cols[i].NDV > 0 {
			d.NDV, d.Sketch = max(d.NDV, d.Sketch.Estimate()), nil
		}
	}
	delta.Merge(*cur)
	delta.EstimateNDV()
	c.stats[id] = &delta
	return nil
}

// ReplaceStats publishes stats as the table's statistics (the result of
// ANALYZE, VACUUM or TRUNCATE). The caller hands stats over and writes to it
// no more.
func (c *Catalog) ReplaceStats(id int64, stats TableStats) error {
	stats.EstimateNDV()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.stats[id]; !ok {
		return fmt.Errorf("catalog: no stats for table id %d", id)
	}
	c.stats[id] = &stats
	return nil
}

// SetEncoding records an automatically chosen encoding for a column. The
// table definition itself is untouched (it is immutable after Create); the
// current encoding lives in the catalog's locked map.
func (c *Catalog) SetEncoding(id int64, col int, enc compress.Encoding) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	def, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("catalog: table id %d does not exist", id)
	}
	if col < 0 || col >= len(def.Columns) {
		return fmt.Errorf("catalog: column %d out of range", col)
	}
	if !compress.Applicable(enc, def.Columns[col].Type) {
		return fmt.Errorf("catalog: encoding %s not applicable to %s", enc, def.Columns[col].Type)
	}
	c.encodings[id][col] = enc
	return nil
}

// Encodings returns a copy of the table's current column encodings.
func (c *Catalog) Encodings(id int64) ([]compress.Encoding, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	encs, ok := c.encodings[id]
	if !ok {
		return nil, fmt.Errorf("catalog: table id %d does not exist", id)
	}
	return append([]compress.Encoding(nil), encs...), nil
}

// snapshot is the serialized catalog state used by backup.
type snapshot struct {
	NextID    int64
	Tables    []*TableDef
	Stats     map[int64]*TableStats
	Encodings map[int64][]compress.Encoding
}

// Marshal serializes the catalog for backup (§2.3: restore brings back
// "metadata and catalog" first, before any data block).
func (c *Catalog) Marshal() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := snapshot{NextID: c.nextID, Stats: c.stats, Encodings: c.encodings}
	for _, def := range c.byID {
		snap.Tables = append(snap.Tables, def)
	}
	sort.Slice(snap.Tables, func(i, j int) bool { return snap.Tables[i].ID < snap.Tables[j].ID })
	return json.Marshal(snap)
}

// Unmarshal reconstructs a catalog serialized with Marshal.
func Unmarshal(data []byte) (*Catalog, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("catalog: corrupt snapshot: %w", err)
	}
	c := New()
	c.nextID = snap.NextID
	for _, def := range snap.Tables {
		c.byName[strings.ToLower(def.Name)] = def
		c.byID[def.ID] = def
		c.dataVer[def.ID] = 1
	}
	maps.Copy(c.stats, snap.Stats)
	for id, encs := range snap.Encodings {
		c.encodings[id] = encs
	}
	// Older snapshots without the encodings map fall back to definitions.
	for id, def := range c.byID {
		if _, ok := c.encodings[id]; !ok {
			c.encodings[id] = def.Encodings()
		}
	}
	return c, nil
}
