package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"redshift/internal/compress"
	"redshift/internal/types"
)

// dirEntries lists what is in a SpillDir's directory right now.
func dirEntries(t *testing.T, d *SpillDir) []string {
	t.Helper()
	path := d.Path()
	if path == "" {
		return nil
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// frameCases are the batch shapes a frame has to carry: materialization
// holes, no columns at all, NULL-dense numbers, strings with NULLs and
// empties.
func frameCases(rng *rand.Rand, n int) map[string]*Batch {
	dense := types.NewVector(types.Float64, n)
	strs := types.NewVector(types.String, n)
	ints := types.NewVector(types.Int64, n)
	for i := 0; i < n; i++ {
		if i%5 != 0 {
			dense.AppendNull()
		} else {
			dense.Append(types.NewFloat(rng.NormFloat64()))
		}
		switch rng.Intn(4) {
		case 0:
			strs.AppendNull()
		case 1:
			strs.Append(types.NewString(""))
		default:
			strs.Append(types.NewString(fmt.Sprintf("v%0*d", rng.Intn(200), rng.Intn(1000))))
		}
		ints.Append(types.NewInt(rng.Int63()))
	}
	return map[string]*Batch{
		"holes":      {Cols: []*types.Vector{nil, ints, nil, strs, nil}, N: n},
		"no-columns": {Cols: []*types.Vector{}, N: n},
		"all-holes":  {Cols: make([]*types.Vector, 3), N: n},
		"null-dense": {Cols: []*types.Vector{dense, ints}, N: n},
		"strings":    {Cols: []*types.Vector{strs, strs, dense}, N: n},
	}
}

// readAll drains a partition and returns its rows and the sizes of the
// batches they came back in.
func readAll(t *testing.T, p *frames) (rows []string, sizes []int) {
	t.Helper()
	err := drainFrames(context.Background(), p, func(b *Batch) error {
		rows = append(rows, batchRowStrings(b)...)
		sizes = append(sizes, b.N)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, sizes
}

// TestSpillFrameRoundTrip writes every frame case into one scratch file
// three ways — whole (3×BatchSize rows at once: chunking), a row at a time
// and by scattered selections (coalescing) — and reads each back as full
// BatchSize batches of the same rows.
func TestSpillFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	const n = 3 * BatchSize
	dir := NewSpillDir(t.TempDir(), "frames")
	defer dir.Cleanup()
	stats := &SpillStats{}
	sf, err := dir.create("test", stats)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range frameCases(rng, n) {
		want := batchRowStrings(b)
		whole, single, picked := &frames{sf: sf}, &frames{sf: sf}, &frames{sf: sf}
		if err := whole.appendBatch(b); err != nil {
			t.Fatal(err)
		}
		var sel []int
		for i := 0; i < n; i++ {
			if err := single.appendSel(b, []int{i}); err != nil {
				t.Fatal(err)
			}
			// Selections of a few rows each, in order.
			if sel = append(sel, i); rng.Intn(7) == 0 || i == n-1 {
				if err := picked.appendSel(b, sel); err != nil {
					t.Fatal(err)
				}
				sel = sel[:0]
			}
		}
		for how, p := range map[string]*frames{"whole": whole, "single": single, "picked": picked} {
			if p.rows != n {
				t.Errorf("%s/%s: %d rows appended, want %d", name, how, p.rows, n)
			}
			got, sizes := readAll(t, p)
			sameRows(t, name+"/"+how, got, want)
			if fmt.Sprint(sizes) != fmt.Sprint([]int{BatchSize, BatchSize, BatchSize}) {
				t.Errorf("%s/%s: read back in batches of %v", name, how, sizes)
			}
			// A second pass reads the same frames again.
			again, _ := readAll(t, p)
			sameRows(t, name+"/"+how+"/again", again, want)
		}
	}

	// A partition whose pieces change shape starts a new frame at the change.
	p := &frames{sf: sf}
	a := &Batch{Cols: []*types.Vector{{T: types.Int64, Ints: []int64{1, 2}}, nil}, N: 2}
	b := &Batch{Cols: []*types.Vector{nil, {T: types.String, Strs: []string{"x"}}}, N: 1}
	for _, piece := range []*Batch{a, b, a} {
		if err := p.appendBatch(piece); err != nil {
			t.Fatal(err)
		}
	}
	got, sizes := readAll(t, p)
	sameRows(t, "shapes", got, append(append(batchRowStrings(a), batchRowStrings(b)...), batchRowStrings(a)...))
	if fmt.Sprint(sizes) != "[2 1 2]" {
		t.Errorf("shape changes framed as %v, want [2 1 2]", sizes)
	}

	if stats.Files.Load() != 1 || stats.Bytes.Load() != sf.off || dir.Bytes() != sf.off {
		t.Errorf("stats: %d files, %d bytes; dir %d bytes; file holds %d", stats.Files.Load(), stats.Bytes.Load(), dir.Bytes(), sf.off)
	}
	sf.Close()
	if ents := dirEntries(t, dir); len(ents) != 0 {
		t.Errorf("closed scratch file still on disk: %v", ents)
	}
}

// FuzzSpillFrame feeds arbitrary bytes to the frame decoder as the content
// of an extent: the outcome is an error or a batch of at most BatchSize rows
// whose every column has exactly that many — never a panic, and nothing
// sized by a count the bytes merely claim.
func FuzzSpillFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeFrame(data)
		if err != nil {
			return
		}
		if b.N > BatchSize || len(b.Cols) > len(data) {
			t.Fatalf("%d rows × %d columns out of %d bytes", b.N, len(b.Cols), len(data))
		}
		for c, v := range b.Cols {
			if v != nil && (v.Len() != b.N || b.N > len(data)) {
				t.Fatalf("column %d: %d values in a %d-row frame of %d bytes", c, v.Len(), b.N, len(data))
			}
		}
		// What decodes re-encodes to a frame that decodes to the same rows.
		again, err := decodeFrame(appendFrame(nil, b))
		if err != nil {
			t.Fatalf("re-encoded frame: %v", err)
		}
		if fmt.Sprint(batchRowStrings(again)) != fmt.Sprint(batchRowStrings(b)) || again.N != b.N {
			t.Fatal("re-encoded frame decodes differently")
		}
	})
}

// TestSpillFrameSeedCorpus keeps FuzzSpillFrame's committed seeds — one
// valid frame per shape, and the ways a frame lies about itself — equal to
// what the cases encode to; UPDATE_FUZZ_CORPUS=1 writes them. It also holds
// each lie to an error.
func TestSpillFrameSeedCorpus(t *testing.T) {
	seeds := map[string][]byte{}
	for name, b := range frameCases(rand.New(rand.NewSource(1)), 9) {
		seeds[name] = appendFrame(nil, b)
	}
	valid := seeds["holes"]
	rle, err := compress.Encode(compress.RunLength, &types.Vector{T: types.Int64, Ints: make([]int64, 9)})
	if err != nil {
		t.Fatal(err)
	}
	lies := map[string][]byte{
		"truncated":     valid[:len(valid)-3],
		"trailing":      append(append([]byte{}, valid...), 0),
		"too-many-rows": appendFrame(nil, &Batch{Cols: []*types.Vector{}, N: BatchSize + 1}),
		"more-columns":  {9, 100, 0, 0},
		"short-column":  append([]byte{9, 1, byte(compress.RawLen(&types.Vector{T: types.Int64, Ints: make([]int64, 3)}))}, compress.AppendRaw(nil, &types.Vector{T: types.Int64, Ints: make([]int64, 3)})...),
		"not-raw":       append([]byte{9, 1, byte(len(rle))}, rle...),
		"huge-length":   {9, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0},
	}
	for name, data := range lies {
		seeds[name] = data
	}
	for name, data := range seeds {
		if _, err := decodeFrame(data); (err == nil) != (lies[name] == nil) {
			t.Errorf("%s: decode error = %v", name, err)
		}
	}
	checkSeedCorpus(t, "FuzzSpillFrame", seeds)
}

// checkSeedCorpus holds a fuzz target's committed seed files to seeds, name
// for name and byte for byte; UPDATE_FUZZ_CORPUS=1 writes them instead.
func checkSeedCorpus(t *testing.T, target string, seeds map[string][]byte) {
	t.Helper()
	for name, data := range seeds {
		path := filepath.Join("testdata", "fuzz", target, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s: seed missing or stale (%v); run with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// TestSpillDirTracksOpenFiles: operators on several goroutines open, write
// and finish scratch files at once (run under -race). The directory lists a
// file only while it is open — a finished operator's is closed, unlinked and
// forgotten — and Cleanup removes whatever a cancelled query left open,
// directory included; after it nothing can be created.
func TestSpillDirTracksOpenFiles(t *testing.T) {
	base := t.TempDir()
	dir := NewSpillDir(base, "q")
	const operators, abandoned = 16, 3
	b := &Batch{Cols: []*types.Vector{{T: types.Int64, Ints: make([]int64, 100)}}, N: 100}
	var wg sync.WaitGroup
	errs := make([]error, operators)
	for i := 0; i < operators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sf, err := dir.create("op", nil)
			if err != nil {
				errs[i] = err
				return
			}
			p := &frames{sf: sf}
			if errs[i] = p.appendBatch(b); errs[i] != nil {
				return
			}
			errs[i] = drainFrames(context.Background(), p, func(got *Batch) error {
				if got.N != b.N {
					return fmt.Errorf("read back %d rows", got.N)
				}
				return nil
			})
			if i >= abandoned {
				sf.Close()
				sf.Close() // closing twice is harmless
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("operator %d: %v", i, err)
		}
	}
	if dir.Files() != operators {
		t.Errorf("Files() = %d, want %d", dir.Files(), operators)
	}
	dir.mu.Lock()
	open := len(dir.open)
	dir.mu.Unlock()
	if ents := dirEntries(t, dir); open != abandoned || len(ents) != abandoned {
		t.Errorf("%d files tracked, %d on disk (%v); want the %d still open", open, len(ents), ents, abandoned)
	}

	if err := dir.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(base); len(ents) != 0 {
		t.Errorf("Cleanup left %d entries under the base", len(ents))
	}
	if _, err := dir.create("late", nil); !errors.Is(err, errSpillCleaned) {
		t.Errorf("create after Cleanup: %v", err)
	}
	if err := dir.Cleanup(); err != nil {
		t.Errorf("second Cleanup: %v", err)
	}
	if ents, _ := os.ReadDir(base); len(ents) != 0 {
		t.Errorf("a create refused after Cleanup left %d entries behind", len(ents))
	}
}
