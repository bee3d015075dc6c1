package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/types"
)

// The readers' oracle: parseObject and parseJSON (with findKey and
// jsonValue) exactly as they stood before the readers were rewritten to
// fill column vectors, boxed rows and all. FuzzCopyCSV and FuzzCopyJSON hold
// the new readers to them.

func oracleParseObject(data []byte, def *catalog.TableDef, opts Options) ([]types.Row, error) {
	if strings.EqualFold(opts.Format, "JSON") {
		return oracleParseJSON(data, def)
	}
	delim := opts.Delimiter
	if delim == 0 {
		delim = '|'
	}
	var rows []types.Row
	for lineNo, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, string(delim))
		if len(fields) != len(def.Columns) {
			return nil, fmt.Errorf("line %d: %d fields, table has %d columns", lineNo+1, len(fields), len(def.Columns))
		}
		row := make(types.Row, len(fields))
		for i, f := range fields {
			v, err := types.ParseValue(def.Columns[i].Type, f)
			if err != nil {
				return nil, fmt.Errorf("line %d column %s: %w", lineNo+1, def.Columns[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func oracleParseJSON(data []byte, def *catalog.TableDef) ([]types.Row, error) {
	var rows []types.Row
	dec := json.NewDecoder(bytes.NewReader(data))
	for lineNo := 1; ; lineNo++ {
		var obj map[string]json.RawMessage
		if err := dec.Decode(&obj); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("json record %d: %w", lineNo, err)
		}
		row := make(types.Row, len(def.Columns))
		for i, col := range def.Columns {
			raw, ok := oracleFindKey(obj, col.Name)
			if !ok || string(raw) == "null" {
				row[i] = types.NewNull(col.Type)
				continue
			}
			v, err := oracleJSONValue(col.Type, raw)
			if err != nil {
				return nil, fmt.Errorf("json record %d column %s: %w", lineNo, col.Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func oracleFindKey(obj map[string]json.RawMessage, name string) (json.RawMessage, bool) {
	if v, ok := obj[name]; ok {
		return v, true
	}
	for k, v := range obj {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return nil, false
}

func oracleJSONValue(t types.Type, raw json.RawMessage) (types.Value, error) {
	switch t {
	case types.Int64:
		var i int64
		if err := json.Unmarshal(raw, &i); err != nil {
			return types.Value{}, err
		}
		return types.NewInt(i), nil
	case types.Float64:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return types.Value{}, err
		}
		return types.NewFloat(f), nil
	case types.Bool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return types.Value{}, err
		}
		return types.NewBool(b), nil
	default:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return types.Value{}, err
		}
		if t == types.String {
			return types.NewString(s), nil
		}
		return types.ParseValue(t, s)
	}
}

// fuzzTable has a column of every type. Its names are single letters with
// no other spelling under Unicode case folding than their capital, so the
// JSON reader's case-insensitive key match never has two keys to choose
// between by map order.
func fuzzTable() *catalog.TableDef {
	return &catalog.TableDef{
		ID:   1,
		Name: "fuzz",
		Columns: []catalog.ColumnDef{
			{Name: "a", Type: types.Int64},
			{Name: "b", Type: types.Float64},
			{Name: "c", Type: types.String},
			{Name: "d", Type: types.Bool},
			{Name: "e", Type: types.Date},
			{Name: "f", Type: types.Timestamp},
		},
		DistKeyCol: -1,
	}
}

// fuzzDelims is what a fuzz input's first byte picks the delimiter from:
// COPY's default, the usual two, and one of more than a byte.
var fuzzDelims = []rune{0, ',', '\t', '§'}

// sameValue is == with NaN equal to itself.
func sameValue(a, b types.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// checkReader holds the new reader to the oracle on one object: the same
// values and NULLs row for row, or the same error — which names the line
// and the column. The one intended difference is the CRLF rule: the oracle
// reads the text with every "\r\n" already made "\n".
func checkReader(t *testing.T, data []byte, opts Options) {
	t.Helper()
	def := fuzzTable()
	got := NewColumns(def, 0)
	var want []types.Row
	var err, wantErr error
	if strings.EqualFold(opts.Format, "JSON") {
		want, wantErr = oracleParseObject(data, def, opts)
		err = readJSON(data, def, got)
	} else {
		want, wantErr = oracleParseObject(bytes.ReplaceAll(data, []byte("\r\n"), []byte("\n")), def, opts)
		err = readDelimited(string(data), def, opts.Delimiter, got)
	}
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("reader error = %v, oracle error = %v", err, wantErr)
	}
	if err != nil {
		return
	}
	for c, v := range got {
		if v.Len() != len(want) {
			t.Fatalf("column %s: reader read %d rows, oracle %d", def.Columns[c].Name, v.Len(), len(want))
		}
		for r, row := range want {
			if g := v.Get(r); !sameValue(g, row[c]) {
				t.Fatalf("row %d column %s: reader %#v, oracle %#v", r, def.Columns[c].Name, g, row[c])
			}
		}
	}
}

// csvSeeds are FuzzCopyCSV's committed seeds: the delimiter's index in
// fuzzDelims, then the object. A name starting "bad-" must fail to load.
var csvSeeds = map[string]string{
	"basic":          "\x001|1.5|ab|t|2015-05-31|2015-05-31 12:00:00\n2|-2|cd|false|1970-01-01|1970-01-01T00:00:00Z\n",
	"crlf":           "\x001|1.5|ab|t|2015-05-31|2015-05-31 12:00:00\r\n2|2|cd\r|f|2015-06-01|\r\n",
	"bad-cr-at-eof":  "\x001|1.5|ab|t|2015-05-31|\r",
	"bad-cr-cr-lf":   "\x01\r\r\n1,1,x,1,,\r\r\n",
	"empty-lines":    "\x00\n\n1|||||\n\n\r\n2|||||",
	"nulls":          "\x00|||||\n|||||\r\n",
	"no-final-eol":   "\x007|7|seven|yes|2015-01-01|2015-01-01",
	"spaces":         "\x00 7 | 7.5 | seven | YES | 2015-01-01 | 2015-01-01 \n",
	"comma":          "\x011,1,a|b,0,,\n",
	"tab":            "\x021\t1\ta b\t0\t\t\n",
	"wide-delim":     "\x031§1§a|b,c§0§§\n",
	"nan-inf":        "\x001|NaN|x|1||\n2|-Inf|y|0||\n3|-0|z|n||\n",
	"bad-arity":      "\x001|2|3\n",
	"bad-arity-late": "\x001|||||\nx|y\n",
	"bad-int":        "\x00xx|1|a|t||\n",
	"bad-int-crlf":   "\x001|||||\r\n2 x|||||\r\n",
	"bad-bool":       "\x001|1|a|maybe||\n",
	"bad-date":       "\x001|1|a|t|2015-13-40|\n",
	"bad-timestamp":  "\x001|1|a|t||yesterday\n",
	"bad-second":     "\x001|1|a|t||\n1|1|a|t||\n1|one|a|t||\n1|1|a|t|never|\n",
	"bad-bytes":      "\x00\xff\xfe|\x00|\xc3\x28|t||\n",
}

// jsonSeeds are FuzzCopyJSON's.
var jsonSeeds = map[string]string{
	"basic":         `{"a": 1, "b": 1.5, "c": "ab", "d": true, "e": "2015-05-31", "f": "2015-05-31 12:00:00"}` + "\n" + `{"a": 2}`,
	"key-case":      `{"A": 1, "B": 2, "C": "x"}`,
	"exact-wins":    `{"A": 1, "a": 2}`,
	"duplicate-key": `{"a": 1, "a": 2}`,
	"nulls":         `{"a": null, "c": null}` + "\n{}\n",
	"no-newlines":   `{"a":1}{"a":2} {"a":3}`,
	"crlf":          "{\"a\": 1}\r\n{\"a\": 2}\r\n",
	"int-in-float":  `{"b": 3}`,
	"unknown-keys":  `{"z": [1, {"y": 2}], "a": 7}`,
	"escapes":       `{"c": "tab\there é 😀"}`,
	"empty":         "",
	"bad-type":      `{"a": "one"}`,
	"bad-float-int": `{"a": 1.5}`,
	"bad-date":      `{"a": 1}` + "\n" + `{"e": "31/05/2015"}`,
	"bad-string":    `{"c": 5}`,
	"bad-truncated": `{"a": 1}` + "\n" + `{"a": `,
	"bad-array":     `[1, 2]`,
	"bad-bytes":     "{\"c\": \"\xff\"}\n\x00",
}

// FuzzCopyCSV feeds arbitrary bytes to the delimited reader: never a panic,
// and the oracle's rows or the oracle's error.
func FuzzCopyCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkReader(t, data[1:], Options{Delimiter: fuzzDelims[int(data[0])%len(fuzzDelims)]})
	})
}

// FuzzCopyJSON does the same for the JSON reader.
func FuzzCopyJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReader(t, data, Options{Format: "JSON"})
	})
}

// TestCopySeedCorpus keeps both targets' committed seeds equal to csvSeeds
// and jsonSeeds (UPDATE_FUZZ_CORPUS=1 writes them), and holds each seed to
// its target's contract and to its name.
func TestCopySeedCorpus(t *testing.T) {
	def := fuzzTable()
	files := map[string]map[string][]byte{"FuzzCopyCSV": {}, "FuzzCopyJSON": {}}
	for name, seed := range csvSeeds {
		opts := Options{Delimiter: fuzzDelims[int(seed[0])%len(fuzzDelims)]}
		t.Run("csv/"+name, func(t *testing.T) { checkReader(t, []byte(seed[1:]), opts) })
		if err := readDelimited(seed[1:], def, opts.Delimiter, NewColumns(def, 0)); (err != nil) != strings.HasPrefix(name, "bad-") {
			t.Errorf("csv/%s: error = %v", name, err)
		}
		files["FuzzCopyCSV"][name] = []byte(seed)
	}
	for name, seed := range jsonSeeds {
		t.Run("json/"+name, func(t *testing.T) { checkReader(t, []byte(seed), Options{Format: "JSON"}) })
		if err := readJSON([]byte(seed), def, NewColumns(def, 0)); (err != nil) != strings.HasPrefix(name, "bad-") {
			t.Errorf("json/%s: error = %v", name, err)
		}
		files["FuzzCopyJSON"][name] = []byte(seed)
	}
	for target, seeds := range files {
		checkSeedCorpus(t, target, seeds)
	}
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
