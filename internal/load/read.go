package load

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"redshift/internal/catalog"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
	"redshift/internal/types"
)

// readObjects reads and parses the source objects, workers of them at a
// time, each into its own Columns. A failed COPY reports the lowest object
// that failed (and, of that object, the first bad line) whichever worker got
// there first, and returns once every worker has stopped.
func readObjects(workers int, store *s3sim.Store, keys []string,
	def *catalog.TableDef, opts Options) ([]Columns, int64, error) {

	objects := make([]Columns, len(keys))
	sizes := make([]int64, len(keys))
	errs := make([]error, len(keys))
	var next, failed atomic.Int64 // the next object to hand out; the lowest one that failed
	failed.Store(int64(len(keys)))
	var wg sync.WaitGroup
	for i := 0; i < min(max(workers, 1), len(keys)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Objects are handed out in order: one past a failure cannot
			// change the error reported, nor can any after it.
			for idx := next.Add(1) - 1; idx < int64(len(keys)) && idx < failed.Load(); idx = next.Add(1) - 1 {
				objects[idx], sizes[idx], errs[idx] = readObject(store, keys[idx], def, opts)
				for f := failed.Load(); errs[idx] != nil && idx < f && !failed.CompareAndSwap(f, idx); f = failed.Load() {
				}
			}
		}()
	}
	wg.Wait()
	if f := failed.Load(); f < int64(len(keys)) {
		return nil, 0, errs[f]
	}
	var total int64
	for _, n := range sizes {
		total += n
	}
	return objects, total, nil
}

// readObject fetches one object and parses its rows; size is what the store
// served.
func readObject(store *s3sim.Store, key string, def *catalog.TableDef, opts Options) (cols Columns, size int64, err error) {
	// Data-lake reads retry with backoff: one flaky GET must not fail a
	// whole COPY.
	var data []byte
	if _, err := faults.DefaultPolicy.Do(context.Background(), func() error {
		var gerr error
		data, gerr = store.Get(key)
		return gerr
	}); err != nil {
		return nil, 0, err
	}
	size = int64(len(data))
	if opts.GZip {
		if data, err = gunzip(data); err != nil {
			return nil, 0, fmt.Errorf("load: %s: %w", key, err)
		}
	}
	cols = newColumns(def, bytes.Count(data, []byte{'\n'})+1)
	if strings.EqualFold(opts.Format, "JSON") {
		err = readJSON(data, def, cols)
	} else {
		err = readDelimited(string(data), def, opts.Delimiter, cols)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("load: %s: %w", key, err)
	}
	return cols, size, nil
}

func gunzip(data []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// readDelimited parses delimited text, one row a line, onto cols. The text
// is the caller's one copy of the object: string values are substrings of
// it. A line ends at '\n'; one '\r' before it is part of the terminator, as
// in PostgreSQL's COPY. Empty lines are skipped. After an error cols may end
// in part of a row.
func readDelimited(text string, def *catalog.TableDef, delim rune, cols Columns) error {
	if delim == 0 {
		delim = '|'
	}
	sep := string(delim)
	for lineNo := 1; text != ""; lineNo++ {
		line := text
		if end := strings.IndexByte(text, '\n'); end >= 0 {
			line, text = strings.TrimSuffix(text[:end], "\r"), text[end+1:]
		} else {
			text = ""
		}
		if line == "" {
			continue
		}
		if n := strings.Count(line, sep) + 1; n != len(cols) {
			return fmt.Errorf("line %d: %d fields, table has %d columns", lineNo, n, len(cols))
		}
		for i, col := range def.Columns {
			field := line
			if i < len(cols)-1 {
				end := strings.Index(line, sep)
				field, line = line[:end], line[end+len(sep):]
			}
			v, err := types.ParseValue(col.Type, field)
			if err != nil {
				return fmt.Errorf("line %d column %s: %w", lineNo, col.Name, err)
			}
			cols[i].Append(v)
		}
	}
	return nil
}

// readJSON parses newline-delimited JSON objects keyed by column name
// (COPY's direct JSON ingestion, §2.1) onto cols. Missing keys become NULL.
func readJSON(data []byte, def *catalog.TableDef, cols Columns) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	for lineNo := 1; ; lineNo++ {
		var obj map[string]json.RawMessage
		if err := dec.Decode(&obj); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("json record %d: %w", lineNo, err)
		}
		for i, col := range def.Columns {
			raw, ok := findKey(obj, col.Name)
			if !ok || string(raw) == "null" {
				cols[i].AppendNull()
				continue
			}
			v, err := jsonValue(col.Type, raw)
			if err != nil {
				return fmt.Errorf("json record %d column %s: %w", lineNo, col.Name, err)
			}
			cols[i].Append(v)
		}
	}
}

func findKey(obj map[string]json.RawMessage, name string) (json.RawMessage, bool) {
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

func jsonValue(t types.Type, raw json.RawMessage) (types.Value, error) {
	v := types.Value{T: t}
	var err error
	switch t {
	case types.Int64:
		err = json.Unmarshal(raw, &v.I)
	case types.Float64:
		err = json.Unmarshal(raw, &v.F)
	case types.Bool:
		var b bool
		err = json.Unmarshal(raw, &b)
		v = types.NewBool(b)
	default:
		if err = json.Unmarshal(raw, &v.S); err == nil && t != types.String {
			return types.ParseValue(t, v.S)
		}
	}
	return v, err
}
