package compress

import (
	"math"
	"sort"

	"redshift/internal/types"
)

// Result is one row of an ANALYZE COMPRESSION report: how one encoding
// performed on a sample of a column.
type Result struct {
	Encoding Encoding
	// Bytes is the encoded size of the sample; zero when the encoding
	// could not represent the sample (e.g. BYTEDICT overflow).
	Bytes int
	// Ratio is raw size divided by encoded size (higher is better).
	Ratio float64
	// Applicable reports whether the encoding could represent the sample.
	Applicable bool
}

// lzPenalty is LZ's weight in the codecs table: how much smaller
// (multiplicatively) the heavyweight LZ codec must be than the best
// lightweight codec before the chooser prefers it, charging for its decode
// CPU cost. §2.1 stresses sequential-scan speed; a lightweight codec that
// scans faster wins near-ties.
const lzPenalty = 1.25

// Analyze encodes the sample under every applicable encoding and reports
// the sizes, largest ratio first. It implements ANALYZE COMPRESSION and is
// the engine behind automatic selection during COPY (§2.1: "By default,
// compression scheme ... updated with load").
func Analyze(sample *types.Vector) []Result {
	rawSize := encodedSize(Raw, sample)
	var out []Result
	for e := Encoding(0); e < numEncodings; e++ {
		if !Applicable(e, sample.T) {
			continue
		}
		size := encodedSize(e, sample)
		res := Result{Encoding: e, Bytes: size, Applicable: size > 0}
		if size > 0 && rawSize > 0 {
			res.Ratio = float64(rawSize) / float64(size)
		}
		out = append(out, res)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Applicable != out[j].Applicable {
			return out[i].Applicable
		}
		return out[i].Bytes < out[j].Bytes
	})
	return out
}

// encodedSize returns the encoded byte count, or 0 when not encodable.
func encodedSize(e Encoding, v *types.Vector) int {
	b, err := Encode(e, v)
	if err != nil {
		return 0
	}
	return len(b)
}

// Choose picks the encoding COPY applies to a column, given a sample of its
// data: the applicable encoding with the smallest weighted size. An empty
// sample chooses Raw.
func Choose(sample *types.Vector) Encoding {
	if sample.Len() == 0 {
		return Raw
	}
	return cheapest(Analyze(sample))
}

// cheapest returns the applicable result whose size times its codec's weight
// is least. A tie goes to the lighter codec; one between equal weights is a
// tie in size too, and goes to the first result. None applicable is Raw.
func cheapest(results []Result) Encoding {
	best, cost := Raw, math.Inf(1)
	for _, r := range results {
		if !r.Applicable {
			continue
		}
		w := codecs[r.Encoding].weight
		if c := float64(r.Bytes) * w; c < cost || c == cost && w < codecs[best].weight {
			best, cost = r.Encoding, c
		}
	}
	return best
}

// Sample extracts at most max values as a handful of contiguous runs
// spread across the vector. Contiguity matters: a strided sample destroys
// the local structure (sortedness, runs) that DELTA and RUNLENGTH exploit
// and would bias the chooser toward general-purpose codecs.
func Sample(v *types.Vector, max int) *types.Vector {
	n := v.Len()
	if n <= max {
		return v
	}
	const chunks = 8
	chunkLen := max / chunks
	out := types.NewVector(v.T, max)
	for c := 0; c < chunks; c++ {
		start := c * (n - chunkLen) / (chunks - 1)
		out.AppendRange(v, start, start+chunkLen)
	}
	return out
}
