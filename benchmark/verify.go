package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"redshift/benchmark/stream"
	"redshift/internal/wire"
)

// FNV-1a, written out so that hashing a reply allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// hashString is FNV-1a over s.
func hashString(s string) uint64 { return fnvString(fnvOffset, s) }

// digest folds a reply into an order-insensitive 64-bit value: each row is
// hashed on its own and the row hashes are summed, so two replies holding
// the same multiset of rows digest alike whatever order the slices returned
// them in. DOUBLE cells go through canonFloat first: a SUM or AVG over
// inexact doubles depends on the order slices and morsels merge in, and its
// last bits differ from run to run on the same engine. (The benchmark's own
// tables hold only quarter-valued doubles, whose sums are exact; the
// multi-tenant trace's tables do not.)
func digest(resp *wire.Response) uint64 {
	isFloat := make([]bool, len(resp.Types))
	for i, t := range resp.Types {
		isFloat[i] = t == "DOUBLE PRECISION"
	}
	var buf [32]byte
	sum := uint64(len(resp.Rows)) * 0x9e3779b97f4a7c15
	for _, row := range resp.Rows {
		h := uint64(fnvOffset)
		for i, cell := range row {
			if i < len(isFloat) && isFloat[i] {
				h = fnvBytes(h, canonFloat(buf[:0], cell))
			} else {
				h = fnvString(h, cell)
			}
			h = (h ^ 0x1f) * fnvPrime
		}
		sum += h
	}
	return sum
}

// canonFloat appends cell, a rendered double, to dst rounded to four
// significant digits — in two steps. Rounding straight to four digits is
// not enough: averages of two-decimal prices often are short decimals
// (275.2425) that sit exactly on a rounding boundary, and summation noise
// of a few ulps puts them on either side of it. Snapping to ten digits
// first maps both noisy neighbours to the same decimal; the second rounding
// then sees one input and is deterministic. A cell of at most ten digits is
// its own snap. Anything that does not parse is kept as it is.
func canonFloat(dst []byte, cell string) []byte {
	f, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return append(dst, cell...)
	}
	if len(cell) > 11 { // could hold more than ten significant digits
		var snap [32]byte
		if g, err := strconv.ParseFloat(string(strconv.AppendFloat(snap[:0], f, 'e', 9, 64)), 64); err == nil {
			f = g
		}
	}
	return strconv.AppendFloat(dst, f, 'e', 3, 64)
}

// golden is the committed reference for one workload × pinned seed: the
// reply digest of every verifiable statement among the first len(Digests)
// statement ids ("" = not verifiable), recorded by -record-golden from the
// compiled engine and cross-checked at record time against a twin warehouse
// running the interpreted row-at-a-time engine.
type golden struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Digests  []string `json:"digests"`
}

//go:embed golden/*.json
var goldenFS embed.FS

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("golden/%s-%d.json", workload, seed)
}

// loadGolden returns the committed golden for the pair, or nil when the
// seed is not a pinned one.
func loadGolden(workload string, seed int64) (*golden, error) {
	data, err := goldenFS.ReadFile(goldenName(workload, seed))
	if err != nil {
		return nil, nil
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenName(workload, seed), err)
	}
	return &g, nil
}

func formatDigest(d uint64) string { return strconv.FormatUint(d, 16) }

// goldenStmts is how many leading statement ids a golden covers. Scaled
// runs (the smoke test) have different data, so goldens apply at scale 1
// only.
const goldenStmts = 600

// twinSample is how many statements, spread evenly over the whole run,
// every run re-executes on the interpreted twin. A golden covers only the
// first goldenStmts ids; a reply that goes wrong later — after evictions,
// VACUUM epochs, plan-cache invalidations — is this sample's to catch.
const twinSample = 24

// verdict accumulates a run's correctness outcome.
type verdict struct {
	attempted, failed int
	errors            []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.errors) < 20 {
		v.errors = append(v.errors, fmt.Sprintf(format, args...))
	}
}

// check holds the replayed samples against every reference available:
// error replies, equal statement texts digesting differently, the committed
// golden when the seed is pinned, a sample re-executed on an interpreted
// twin, and the row-count invariant of the tables the stream wrote to.
func (in *instance) check(cfg runConfig, samples []sample) (verdict, error) {
	var v verdict
	byText := map[uint64]uint64{}
	var verifiable []sample
	for _, s := range samples {
		v.attempted++
		if s.err != "" {
			v.fail("stmt %d (%s): %s", s.id, s.kind, s.err)
			continue
		}
		if !s.verify {
			continue
		}
		verifiable = append(verifiable, s)
		if prev, seen := byText[s.sqlHash]; seen && prev != s.digest {
			v.fail("stmt %d (%s): same statement text, different reply digest", s.id, s.kind)
		}
		byText[s.sqlHash] = s.digest
	}

	var g *golden
	if cfg.scale == 1 {
		var err error
		if g, err = loadGolden(in.w.Name, cfg.seed); err != nil {
			return v, err
		}
	}
	if g != nil {
		for _, s := range verifiable {
			if s.id < len(g.Digests) && g.Digests[s.id] != "" {
				v.attempted++
				if got := formatDigest(s.digest); got != g.Digests[s.id] {
					v.fail("stmt %d (%s): digest %s, golden %s", s.id, s.kind, got, g.Digests[s.id])
				}
			}
		}
	}
	if len(verifiable) > 0 {
		step := (len(verifiable) + twinSample - 1) / twinSample
		var picked []sample
		for i := 0; i < len(verifiable); i += step {
			picked = append(picked, verifiable[i])
		}
		ref, err := reference(in.w, cfg, picked)
		if err != nil {
			return v, err
		}
		for i, s := range picked {
			v.attempted++
			if ref[i] != s.digest {
				v.fail("stmt %d (%s): digest %s, interpreted twin %s", s.id, s.kind, formatDigest(s.digest), formatDigest(ref[i]))
			}
		}
	}

	// Final row counts of the written tables equal rows loaded + inserted.
	inserted := map[string]int{}
	for _, s := range samples {
		if s.err == "" && s.insRows > 0 {
			inserted[in.w.At(s.id).Table] += s.insRows
		}
	}
	for table, base := range in.w.Counts {
		v.attempted++
		res, err := in.wh.Execute(`SELECT COUNT(*) FROM ` + table)
		if err != nil {
			return v, err
		}
		if got, want := res.Rows[0][0].I, int64(base+inserted[table]); got != want {
			v.fail("%s holds %d rows, want %d (loaded %d + inserted %d)", table, got, want, base, inserted[table])
		}
	}
	return v, nil
}

// reference re-executes the given statements on a twin warehouse running
// the interpreted engine (same options otherwise, immutable tables bulk
// loaded from the same generated bytes) and returns their reply digests.
func reference(w *stream.Workload, cfg runConfig, picked []sample) ([]uint64, error) {
	twin, err := launch(w, 1, cfg.spillDir, true)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	defer twin.close()
	win := twin.replay(replayArgs{
		stmts: func(i int) stream.Stmt { return w.At(picked[i].id) },
		n:     len(picked),
	})
	if errs := win.errors(); len(errs) > 0 {
		return nil, fmt.Errorf("twin: %s", errs[0])
	}
	out := make([]uint64, len(picked))
	for i, s := range win.samples {
		out[i] = s.digest
	}
	return out, nil
}

// recordGolden replays the first goldenStmts statement ids serially on the
// compiled engine and on the interpreted twin, refuses to write anything if
// the two disagree, and stores the digests under dir.
func recordGolden(cfg runConfig, dir string) error {
	spec, _ := specFor(cfg.workload)
	w, err := stream.Generate(cfg.workload, stream.Params{Seed: cfg.seed, Scale: 1, Stmts: spec.MaxRate * runSeconds})
	if err != nil {
		return err
	}
	n := min(goldenStmts, w.Len())
	in, err := launch(w, 1, cfg.spillDir, false)
	if err != nil {
		return err
	}
	defer in.close()
	rest := in.replay(replayArgs{
		stmts:  func(i int) stream.Stmt { return w.At(len(w.Warmup) + i) },
		n:      n - len(w.Warmup),
		idBase: len(w.Warmup),
	})
	samples := append(in.warm.samples, rest.samples...)
	var verifiable []sample
	for _, s := range samples {
		if s.err != "" {
			return fmt.Errorf("record %s: stmt %d: %s", cfg.workload, s.id, s.err)
		}
		if s.verify {
			verifiable = append(verifiable, s)
		}
	}
	ref, err := reference(w, cfg, verifiable)
	if err != nil {
		return err
	}
	g := golden{Workload: cfg.workload, Seed: cfg.seed, Digests: make([]string, n)}
	for i, s := range verifiable {
		if ref[i] != s.digest {
			return fmt.Errorf("record %s: stmt %d (%s): compiled digest %s, interpreted twin %s — not recording",
				cfg.workload, s.id, s.kind, formatDigest(s.digest), formatDigest(ref[i]))
		}
		g.Digests[s.id] = formatDigest(s.digest)
	}
	data, err := json.Marshal(g)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, filepath.Base(goldenName(cfg.workload, cfg.seed)))
	fmt.Printf("recorded %s: %d statements, %d verified against the interpreted twin\n", path, n, len(verifiable))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
