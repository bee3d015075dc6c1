package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redshift/internal/telemetry"
)

// fuzzMemPool is the execution-memory pool FuzzParseQueueSpecs splits.
const fuzzMemPool = 64 << 20

// FuzzParseQueueSpecs: arbitrary bytes into the -wlm-queues parser. It must
// not panic, and a spec list it accepts either makes NewWLMQueues return an
// error or gives every queue a per-slot memory grant in [0, pool].
func FuzzParseQueueSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkQueueSpecs(t, string(data)) })
}

// checkQueueSpecs holds one spec string to FuzzParseQueueSpecs' contract and
// reports whether the WLM accepted it.
func checkQueueSpecs(t *testing.T, s string) bool {
	specs, err := ParseQueueSpecs(s)
	if err != nil {
		return false
	}
	w, err := NewWLMQueues(specs, fuzzMemPool, telemetry.NewRegistry())
	if err != nil {
		return false
	}
	for _, q := range w.QueueStats() {
		if q.MemPerSlot < 0 || q.MemPerSlot > fuzzMemPool {
			t.Fatalf("%q: queue %s gets %d bytes per slot of a %d-byte pool", s, q.Name, q.MemPerSlot, fuzzMemPool)
		}
	}
	return true
}

// queueSpecSeeds is FuzzParseQueueSpecs' committed corpus: the server's
// usage example, the benchmark's queues, the memory-split corners, and
// inputs that must fail.
var queueSpecSeeds = map[string]string{
	"server-usage":      "express=2,short=20000;dash=4,prio=5;etl=2,mem=50%,timeout=60s",
	"benchmark":         "express=2,short=20000,prio=10;dash=2,prio=5;etl=1,mem=50%;default=2",
	"empty":             "",
	"unlimited":         "default=0;etl=-3,mem=100%",
	"shares-tolerance":  "a=1,mem=60%;b=1,mem=40.000005%;default=1",
	"huge-slots":        "a=9223372036854775807;b=9223372036854775807",
	"bad-nan-mem":       "etl=2,mem=NaN%;default=2",
	"bad-duplicate":     "etl=2;ETL=3",
	"bad-shares-over":   "a=1,mem=60%;b=1,mem=50%",
	"bad-attribute":     "etl=2,color=blue",
	"bad-negative-wait": "etl=2,timeout=-1s",
}

// TestQueueSpecSeedCorpus keeps FuzzParseQueueSpecs' committed seeds equal
// to queueSpecSeeds (UPDATE_FUZZ_CORPUS=1 writes them) and holds each to the
// fuzz target's contract: a "bad-" seed is refused, every other one builds a
// WLM.
func TestQueueSpecSeedCorpus(t *testing.T) {
	for name, input := range queueSpecSeeds {
		if ok := checkQueueSpecs(t, input); ok == strings.HasPrefix(name, "bad-") {
			t.Errorf("%s: %q accepted = %v", name, input, ok)
		}
		path := filepath.Join("testdata", "fuzz", "FuzzParseQueueSpecs", name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", input)
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
