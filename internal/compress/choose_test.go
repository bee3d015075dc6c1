package compress

import (
	"fmt"
	"math/rand"
	"testing"

	"redshift/internal/types"
)

// twoPassChoose is the selection rule Choose had before every codec carried
// a weight: the smallest lightweight encoding and the smallest LZ are found
// in Analyze's order, and LZ wins only when lzPenalty times its size is
// strictly below the lightweight one's.
func twoPassChoose(results []Result) Encoding {
	bestLight, bestLZ := -1, -1
	for i, r := range results {
		if !r.Applicable {
			continue
		}
		if r.Encoding == LZ {
			if bestLZ < 0 {
				bestLZ = i
			}
		} else if bestLight < 0 {
			bestLight = i
		}
	}
	switch {
	case bestLight < 0 && bestLZ < 0:
		return Raw
	case bestLight < 0:
		return LZ
	case bestLZ < 0:
		return results[bestLight].Encoding
	}
	if float64(results[bestLZ].Bytes)*lzPenalty < float64(results[bestLight].Bytes) {
		return LZ
	}
	return results[bestLight].Encoding
}

// chooseSamples generates the columns the differential runs over: every
// shape the chooser meets on a COPY, at sizes from one row to a full
// storage block, plus an empty and an all-NULL sample of each type.
func chooseSamples() map[string]*types.Vector {
	rng := rand.New(rand.NewSource(20260925))
	out := map[string]*types.Vector{}
	gen := []struct {
		name string
		t    types.Type
		next func(i int) int64
	}{
		{"sorted-ints", types.Int64, func(i int) int64 { return 1_600_000_000 + int64(i)*3 }},
		{"random-ints", types.Int64, func(int) int64 { return rng.Int63() }},
		{"constant-ints", types.Int64, func(int) int64 { return 42 }},
		{"small-ints", types.Int64, func(int) int64 { return rng.Int63n(200) - 100 }},
		{"mid-ints", types.Int64, func(int) int64 { return rng.Int63n(1 << 20) }},
		{"far-apart-ints", types.Int64, func(int) int64 { return rng.Int63n(200) << 40 }}, // 200 values too far apart to pack
		{"dates", types.Date, func(i int) int64 { return 19000 + int64(i/40) }},
		{"bools", types.Bool, func(int) int64 { return rng.Int63n(2) }},
		{"low-card-strs", types.String, func(int) int64 { return rng.Int63n(3) }},
		{"high-card-strs", types.String, func(int) int64 { return rng.Int63() }},
		{"words", types.String, func(int) int64 { return rng.Int63n(5000) }},
		{"prices", types.Float64, func(int) int64 { return rng.Int63n(100000) }},
		{"random-floats", types.Float64, func(int) int64 { return rng.Int63() }},
		{"sorted-floats", types.Float64, func(i int) int64 { return int64(i) }},
	}
	value := func(t types.Type, name string, x int64) types.Value {
		switch {
		case name == "low-card-strs":
			return types.NewString([]string{"us-east-1", "eu-west-1", "ap-south-1"}[x])
		case name == "words":
			return types.NewString(fmt.Sprintf("note %d of the day", x))
		case t == types.String:
			return types.NewString(fmt.Sprintf("%x", uint64(x)*0x9e3779b97f4a7c15))
		case name == "random-floats":
			return types.NewFloat(float64(x) / (1 << 40))
		case t == types.Float64:
			return types.NewFloat(float64(x) / 100)
		}
		return types.Value{T: t, I: x}
	}
	for _, g := range gen {
		for _, n := range []int{1, 7, 100, 1000, 4096} {
			for _, nullEvery := range []int{0, 2, 10} { // no NULLs, half, nine in ten
				v := types.NewVector(g.t, n)
				for i := 0; i < n; i++ {
					if nullEvery > 0 && i%nullEvery != 0 {
						v.AppendNull()
					} else {
						v.Append(value(g.t, g.name, g.next(i)))
					}
				}
				out[fmt.Sprintf("%s/%d/nulls%d", g.name, n, nullEvery)] = v
			}
		}
	}
	for _, t := range allTypes {
		out["empty/"+t.String()] = types.NewVector(t, 0)
		all := types.NewVector(t, 500)
		for i := 0; i < 500; i++ {
			all.AppendNull()
		}
		out["all-null/"+t.String()] = all
	}
	return out
}

// TestChooseMatchesTwoPassRule holds the one weighted minimum to the rule it
// replaced, on every generated sample and on hand-built result lists the
// samples cannot reach: an exact tie between LZ's weighted size and the best
// lightweight size, LZ just inside and just outside its penalty, and a list
// where only LZ applies.
func TestChooseMatchesTwoPassRule(t *testing.T) {
	picked := map[Encoding]int{}
	for name, v := range chooseSamples() {
		want := Raw
		if v.Len() > 0 {
			want = twoPassChoose(Analyze(v))
		}
		got := Choose(v)
		if got != want {
			t.Errorf("%s: Choose = %v, two-pass rule = %v", name, got, want)
		}
		picked[got]++
	}
	// The samples must reach both sides of the rule, or agreeing proves little.
	for _, e := range []Encoding{Raw, RunLength, Delta, Mostly8, ByteDict, LZ, Pack, Dict} {
		if picked[e] == 0 {
			t.Errorf("no generated sample chose %v: %v", e, picked)
		}
	}

	res := func(e Encoding, bytes int) Result { return Result{Encoding: e, Bytes: bytes, Applicable: true} }
	skip := Result{Encoding: ByteDict}
	for name, results := range map[string][]Result{
		"exact tie":              {res(LZ, 100), res(Delta, 125), res(Raw, 800), skip},
		"exact tie, light first": {res(Delta, 125), res(LZ, 100), res(Raw, 800)},
		"LZ inside penalty":      {res(LZ, 100), res(Mostly8, 120), res(Raw, 800)},
		"LZ past penalty":        {res(LZ, 100), res(Mostly8, 126), res(Raw, 800)},
		"light tie":              {res(LZ, 900), res(Mostly8, 120), res(ByteDict, 120), res(Raw, 800)},
		"only LZ":                {res(LZ, 100), skip, {Encoding: Text}},
		"none":                   {skip, {Encoding: Text}},
		"no results":             nil,
	} {
		if got, want := cheapest(results), twoPassChoose(results); got != want {
			t.Errorf("%s: cheapest = %v, two-pass rule = %v", name, got, want)
		}
	}
	if got := cheapest([]Result{res(LZ, 100), res(Delta, 125)}); got != Delta {
		t.Errorf("exact tie went to %v; the lighter codec must win it", got)
	}
}
