package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"redshift/internal/types"
)

// allTypes lists every column type a block header may carry.
var allTypes = []types.Type{types.Int64, types.Float64, types.String, types.Bool, types.Date, types.Timestamp}

// lcg is a fixed pseudo-random sequence: the pinned vectors must not move
// with the Go release, so they do not come from math/rand.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 17)
}

// fixedVector builds the deterministic n-row vector of type t the format
// pin, the fuzz corpus and the allocation budgets share. narrow vectors
// hold 12 distinct values in runs (every encoding applies, BYTEDICT
// included); wide ones are high-cardinality with MOSTLY exceptions and
// long strings. With nulls, every seventh position is NULL and carries the
// zero placeholder.
func fixedVector(t types.Type, n int, narrow, nulls bool) *types.Vector {
	g := lcg(uint64(t)*977 + uint64(n))
	v := types.NewVector(t, n)
	var cur uint64
	for i := 0; i < n; i++ {
		if nulls && i%7 == 3 {
			v.AppendNull()
			continue
		}
		if !narrow || i%5 == 0 {
			cur = g.next()
		}
		x := cur
		if narrow {
			x %= 12
		}
		switch t {
		case types.Float64:
			v.Append(types.NewFloat(float64(int64(x%100000)) / 8))
		case types.String:
			s := fmt.Sprintf("w%d", x%100000)
			if !narrow && i%97 == 0 {
				s = strings.Repeat(s, 40) // past a one-byte length prefix
			}
			v.Append(types.NewString(s))
		case types.Bool:
			v.Append(types.Value{T: t, I: int64(x & 1)})
		default:
			iv := int64(x%200) - 100
			switch {
			case narrow:
				iv = int64(x)
			case i%50 == 0:
				iv = int64(x) - math.MaxInt32*int64(i%3) // MOSTLY exceptions
			}
			v.Append(types.Value{T: t, I: iv})
		}
	}
	return v
}

// forEachFixed calls fn for every applicable encoding × type × shape, in
// a stable order, with the key that names the case.
func forEachFixed(n int, fn func(key string, e Encoding, v *types.Vector)) {
	for e := Encoding(0); e < numEncodings; e++ {
		for _, t := range allTypes {
			if !Applicable(e, t) {
				continue
			}
			for _, narrow := range []bool{true, false} {
				for _, nulls := range []bool{false, true} {
					shape := map[bool]string{true: "narrow", false: "wide"}[narrow]
					if nulls {
						shape += "+nulls"
					}
					fn(fmt.Sprintf("%s/%s/%s", e, t, shape), e, fixedVector(t, n, narrow, nulls))
				}
			}
		}
	}
}

// dirtyNullVector has non-zero payloads under its NULL positions, the way
// an expression kernel leaves them. BYTEDICT writes the zero placeholder
// into the dictionary for those while probing for the payload; the pin
// holds that quirk still.
func dirtyNullVector() *types.Vector {
	v := &types.Vector{T: types.Int64}
	for i := 0; i < 64; i++ {
		v.Ints = append(v.Ints, int64(i%5)+1)
		v.Nulls = append(v.Nulls, i%4 == 1)
	}
	return v
}

func digest(e Encoding, v *types.Vector) string {
	data, err := Encode(e, v)
	if err != nil {
		return err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// TestFormatPinned holds the encoded format still, byte for byte: blocks
// are content-hashed for backup deduplication, so the same vector must
// encode to the same bytes across releases. The digests were recorded at
// the commit before the cursor decoders and the pooled deflater landed.
func TestFormatPinned(t *testing.T) {
	got := map[string]string{}
	forEachFixed(600, func(key string, e Encoding, v *types.Vector) { got[key] = digest(e, v) })
	for e := Encoding(0); e < numEncodings; e++ {
		if Applicable(e, types.Int64) {
			got[e.String()+"/dirty-nulls"] = digest(e, dirtyNullVector())
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := pinnedDigests[k]; !ok || want != got[k] {
			t.Errorf("%q: %q, // pinned %q", k, got[k], want)
		}
	}
	if len(pinnedDigests) != len(got) {
		t.Errorf("%d pinned digests, %d cases", len(pinnedDigests), len(got))
	}
}

// TestAppendRawIsEncodeRaw: the append-style encoder a frame writer uses makes,
// after whatever dst already holds, exactly the block Encode(Raw, …) returns,
// and RawLen is its length to the byte — long strings (multi-byte length
// prefixes) and the empty vector included.
func TestAppendRawIsEncodeRaw(t *testing.T) {
	check := func(key string, v *types.Vector) {
		want, err := Encode(Raw, v)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		prefix := []byte("frame header")
		got := AppendRaw(append([]byte{}, prefix...), v)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: AppendRaw differs from Encode(Raw)", key)
		}
		if RawLen(v) != len(want) {
			t.Errorf("%s: RawLen = %d, block is %d bytes", key, RawLen(v), len(want))
		}
	}
	forEachFixed(600, func(key string, e Encoding, v *types.Vector) {
		if e == Raw {
			check(key, v)
		}
	})
	check("dirty-nulls", dirtyNullVector())
	long := types.NewVector(types.String, 3)
	for _, n := range []int{0, 127, 128, 20000} {
		long.Append(types.NewString(strings.Repeat("x", n)))
	}
	check("long-strings", long)
	for _, typ := range allTypes {
		check("empty/"+typ.String(), types.NewVector(typ, 0))
	}
}

// pinnedDigests: first 8 bytes of SHA-256(Encode(e, v)), or Encode's error.
var pinnedDigests = map[string]string{
	"BYTEDICT/BIGINT/narrow":                  "efc14ddd69e4b9b2",
	"BYTEDICT/BIGINT/narrow+nulls":            "10b612e29ba63f20",
	"BYTEDICT/BIGINT/wide":                    "93a1fde1731e28cc",
	"BYTEDICT/BIGINT/wide+nulls":              "e3f040b663829ceb",
	"BYTEDICT/BOOLEAN/narrow":                 "dd9b5d25d18c6174",
	"BYTEDICT/BOOLEAN/narrow+nulls":           "50dfdf8d77182417",
	"BYTEDICT/BOOLEAN/wide":                   "50f8b256ae7894c8",
	"BYTEDICT/BOOLEAN/wide+nulls":             "e5ef724257c9130e",
	"BYTEDICT/DATE/narrow":                    "5bdd2f0474937c1f",
	"BYTEDICT/DATE/narrow+nulls":              "fed7a8470f5703c5",
	"BYTEDICT/DATE/wide":                      "b94c63c043d602ee",
	"BYTEDICT/DATE/wide+nulls":                "c3ca1b433b8c43b4",
	"BYTEDICT/DOUBLE PRECISION/narrow":        "7c753f421817a122",
	"BYTEDICT/DOUBLE PRECISION/narrow+nulls":  "133f823096cd6799",
	"BYTEDICT/DOUBLE PRECISION/wide":          "compress: more than 256 distinct values in block",
	"BYTEDICT/DOUBLE PRECISION/wide+nulls":    "compress: more than 256 distinct values in block",
	"BYTEDICT/TIMESTAMP/narrow":               "86f0a0670e88b628",
	"BYTEDICT/TIMESTAMP/narrow+nulls":         "c21f29a1ec6b5fed",
	"BYTEDICT/TIMESTAMP/wide":                 "be038474a3897cbe",
	"BYTEDICT/TIMESTAMP/wide+nulls":           "b50d1a78500fba6e",
	"BYTEDICT/VARCHAR/narrow":                 "02b1eab040f85343",
	"BYTEDICT/VARCHAR/narrow+nulls":           "7f3fa23a0332ba7f",
	"BYTEDICT/VARCHAR/wide":                   "compress: more than 256 distinct values in block",
	"BYTEDICT/VARCHAR/wide+nulls":             "compress: more than 256 distinct values in block",
	"BYTEDICT/dirty-nulls":                    "a3464642fa70557a",
	"DELTA/BIGINT/narrow":                     "dc2fda3cf95673d8",
	"DELTA/BIGINT/narrow+nulls":               "b361dfdb21904697",
	"DELTA/BIGINT/wide":                       "0233f8b17860e11a",
	"DELTA/BIGINT/wide+nulls":                 "53ab6cd7ac6211be",
	"DELTA/BOOLEAN/narrow":                    "44ad81e1515da06d",
	"DELTA/BOOLEAN/narrow+nulls":              "b2bf9469088e9a5f",
	"DELTA/BOOLEAN/wide":                      "01c67b2435777722",
	"DELTA/BOOLEAN/wide+nulls":                "9511f3e3460751bb",
	"DELTA/DATE/narrow":                       "846d268a10399c61",
	"DELTA/DATE/narrow+nulls":                 "bc444a8f798f81aa",
	"DELTA/DATE/wide":                         "d24b708f8858b55a",
	"DELTA/DATE/wide+nulls":                   "9fa627dcd004cf03",
	"DELTA/TIMESTAMP/narrow":                  "8b9d81bc2142b0b7",
	"DELTA/TIMESTAMP/narrow+nulls":            "da408c4155217f37",
	"DELTA/TIMESTAMP/wide":                    "2f62e10c8e76879f",
	"DELTA/TIMESTAMP/wide+nulls":              "7c0ed679524f5918",
	"DELTA/dirty-nulls":                       "7506b02cd2df98ed",
	"LZO/BIGINT/narrow":                       "4a92c85e8f507f10",
	"LZO/BIGINT/narrow+nulls":                 "bf24600376442d7a",
	"LZO/BIGINT/wide":                         "b2154e7049f6ca75",
	"LZO/BIGINT/wide+nulls":                   "eff61814dc77f4fd",
	"LZO/BOOLEAN/narrow":                      "c1289d8c943da60b",
	"LZO/BOOLEAN/narrow+nulls":                "2f8df3f31c6aac86",
	"LZO/BOOLEAN/wide":                        "2cf504529620ae96",
	"LZO/BOOLEAN/wide+nulls":                  "9b43891637f7ed65",
	"LZO/DATE/narrow":                         "9c05c27591c65882",
	"LZO/DATE/narrow+nulls":                   "ffd6139774be6f45",
	"LZO/DATE/wide":                           "29326704a5238c82",
	"LZO/DATE/wide+nulls":                     "4f7a3b7b64c271af",
	"LZO/DOUBLE PRECISION/narrow":             "3b26c3029e466911",
	"LZO/DOUBLE PRECISION/narrow+nulls":       "bb33e1a4bb5752d4",
	"LZO/DOUBLE PRECISION/wide":               "cb8fe3ec0204b9dd",
	"LZO/DOUBLE PRECISION/wide+nulls":         "2daeaee080562dbb",
	"LZO/TIMESTAMP/narrow":                    "65f3d55389bc3d0a",
	"LZO/TIMESTAMP/narrow+nulls":              "a19e9ac1b394f728",
	"LZO/TIMESTAMP/wide":                      "2c1c3ffa898431f8",
	"LZO/TIMESTAMP/wide+nulls":                "53188e1c9b43dfa8",
	"LZO/VARCHAR/narrow":                      "ec65a8cb1b3e24fc",
	"LZO/VARCHAR/narrow+nulls":                "978702c4ff042558",
	"LZO/VARCHAR/wide":                        "acbd0d2a730de856",
	"LZO/VARCHAR/wide+nulls":                  "a616ef8687a1c4a3",
	"LZO/dirty-nulls":                         "925dfc1eedf221ca",
	"MOSTLY16/BIGINT/narrow":                  "37b8a5fa2cf0c610",
	"MOSTLY16/BIGINT/narrow+nulls":            "a938ea6e83e29bf4",
	"MOSTLY16/BIGINT/wide":                    "03caef83cb6a3b92",
	"MOSTLY16/BIGINT/wide+nulls":              "0acf30a92a272901",
	"MOSTLY16/BOOLEAN/narrow":                 "2200c34aa001ca90",
	"MOSTLY16/BOOLEAN/narrow+nulls":           "913f30d95059353d",
	"MOSTLY16/BOOLEAN/wide":                   "c123472991cbf413",
	"MOSTLY16/BOOLEAN/wide+nulls":             "a5b5aefde39d1626",
	"MOSTLY16/DATE/narrow":                    "663b133f759b05df",
	"MOSTLY16/DATE/narrow+nulls":              "fec5ae7b178a7ac6",
	"MOSTLY16/DATE/wide":                      "a21a8fe970aa1a49",
	"MOSTLY16/DATE/wide+nulls":                "866549585fb57d80",
	"MOSTLY16/TIMESTAMP/narrow":               "53ff880de4b6e3c4",
	"MOSTLY16/TIMESTAMP/narrow+nulls":         "a860b23714c4a2bf",
	"MOSTLY16/TIMESTAMP/wide":                 "46948be5b1de9c2a",
	"MOSTLY16/TIMESTAMP/wide+nulls":           "0efdf1385032e83f",
	"MOSTLY16/dirty-nulls":                    "63bc2902b3173bb3",
	"MOSTLY32/BIGINT/narrow":                  "4495ac03a68ee6c4",
	"MOSTLY32/BIGINT/narrow+nulls":            "07c5f75b25f4149f",
	"MOSTLY32/BIGINT/wide":                    "d859b207fbb7a634",
	"MOSTLY32/BIGINT/wide+nulls":              "d9ebe7dbf3722c43",
	"MOSTLY32/BOOLEAN/narrow":                 "5982426ffc82dd5f",
	"MOSTLY32/BOOLEAN/narrow+nulls":           "2a42bea2c601aebd",
	"MOSTLY32/BOOLEAN/wide":                   "575a7c0b98516e1a",
	"MOSTLY32/BOOLEAN/wide+nulls":             "3da96e4c9337c35e",
	"MOSTLY32/DATE/narrow":                    "0bb0cac85d816c28",
	"MOSTLY32/DATE/narrow+nulls":              "87264a5170ca7361",
	"MOSTLY32/DATE/wide":                      "7342a8dc2f878a03",
	"MOSTLY32/DATE/wide+nulls":                "46f90ad674a4d67c",
	"MOSTLY32/TIMESTAMP/narrow":               "7019454edb9ac8eb",
	"MOSTLY32/TIMESTAMP/narrow+nulls":         "a8e9868e18d14854",
	"MOSTLY32/TIMESTAMP/wide":                 "4a36b12490202417",
	"MOSTLY32/TIMESTAMP/wide+nulls":           "c8f627db99708c21",
	"MOSTLY32/dirty-nulls":                    "f7ee915f3e03e9fc",
	"MOSTLY8/BIGINT/narrow":                   "9021708a7d0cccce",
	"MOSTLY8/BIGINT/narrow+nulls":             "f85c11c0fe1bf7a8",
	"MOSTLY8/BIGINT/wide":                     "afc2db5e765c88ef",
	"MOSTLY8/BIGINT/wide+nulls":               "90cbbe7eece045a6",
	"MOSTLY8/BOOLEAN/narrow":                  "d3dcf4234c6d046d",
	"MOSTLY8/BOOLEAN/narrow+nulls":            "0c16a79eaa5d5004",
	"MOSTLY8/BOOLEAN/wide":                    "c566304ade850f4d",
	"MOSTLY8/BOOLEAN/wide+nulls":              "8323e9c3acd1a14f",
	"MOSTLY8/DATE/narrow":                     "65ad6f663a4ae864",
	"MOSTLY8/DATE/narrow+nulls":               "55fb76c77cac925d",
	"MOSTLY8/DATE/wide":                       "1497e1cdca1bc1ca",
	"MOSTLY8/DATE/wide+nulls":                 "31453322ec522893",
	"MOSTLY8/TIMESTAMP/narrow":                "ba6347f82d62deb7",
	"MOSTLY8/TIMESTAMP/narrow+nulls":          "9478d861958b5a19",
	"MOSTLY8/TIMESTAMP/wide":                  "659fb3d8e02cb031",
	"MOSTLY8/TIMESTAMP/wide+nulls":            "5269d5f30f315657",
	"MOSTLY8/dirty-nulls":                     "98eb766ba96c9fd2",
	"RAW/BIGINT/narrow":                       "9ceee5a9bf842268",
	"RAW/BIGINT/narrow+nulls":                 "a10152736088a46b",
	"RAW/BIGINT/wide":                         "19c30024701e2b0c",
	"RAW/BIGINT/wide+nulls":                   "3ed3b52f5b0ea156",
	"RAW/BOOLEAN/narrow":                      "1572efd16446c345",
	"RAW/BOOLEAN/narrow+nulls":                "bacb4871788fe731",
	"RAW/BOOLEAN/wide":                        "9251279d78e47506",
	"RAW/BOOLEAN/wide+nulls":                  "bb7984c9ed8e847a",
	"RAW/DATE/narrow":                         "b9f24ef1162b0fe3",
	"RAW/DATE/narrow+nulls":                   "b7d9b307ad660150",
	"RAW/DATE/wide":                           "62d508a5a6cc1cce",
	"RAW/DATE/wide+nulls":                     "ff7103fbcaa8c3a5",
	"RAW/DOUBLE PRECISION/narrow":             "9ec3cb7ed670c9ff",
	"RAW/DOUBLE PRECISION/narrow+nulls":       "de32599f51f99f4f",
	"RAW/DOUBLE PRECISION/wide":               "ecdf3959750ae5ef",
	"RAW/DOUBLE PRECISION/wide+nulls":         "09b53297ce169680",
	"RAW/TIMESTAMP/narrow":                    "76a1226682ae68cd",
	"RAW/TIMESTAMP/narrow+nulls":              "962ffb7e57ec687a",
	"RAW/TIMESTAMP/wide":                      "6ae09eb50edfbe54",
	"RAW/TIMESTAMP/wide+nulls":                "c2c1945e9cee10df",
	"RAW/VARCHAR/narrow":                      "569af502b425724d",
	"RAW/VARCHAR/narrow+nulls":                "dc741a251470f491",
	"RAW/VARCHAR/wide":                        "9795ce4ab6b5e140",
	"RAW/VARCHAR/wide+nulls":                  "d5d62a108eafaad5",
	"RAW/dirty-nulls":                         "02c14138202a6611",
	"RUNLENGTH/BIGINT/narrow":                 "ddda853c900cb2fa",
	"RUNLENGTH/BIGINT/narrow+nulls":           "5bf1b6f6831bd84e",
	"RUNLENGTH/BIGINT/wide":                   "3c7efc46127da114",
	"RUNLENGTH/BIGINT/wide+nulls":             "5faa4d749e2baf9f",
	"RUNLENGTH/BOOLEAN/narrow":                "7a96ad9bacd8d3fe",
	"RUNLENGTH/BOOLEAN/narrow+nulls":          "a01c5d1fa1f14b65",
	"RUNLENGTH/BOOLEAN/wide":                  "38ca49adfd8eea85",
	"RUNLENGTH/BOOLEAN/wide+nulls":            "668b03a9bb37ae12",
	"RUNLENGTH/DATE/narrow":                   "c3a50a2264c79a38",
	"RUNLENGTH/DATE/narrow+nulls":             "e62070b8c8a22bc5",
	"RUNLENGTH/DATE/wide":                     "71988ca3d1fee7d6",
	"RUNLENGTH/DATE/wide+nulls":               "6a99a7b9d9ce3a53",
	"RUNLENGTH/DOUBLE PRECISION/narrow":       "5cd66ce18cf8a993",
	"RUNLENGTH/DOUBLE PRECISION/narrow+nulls": "c69c693334fb128c",
	"RUNLENGTH/DOUBLE PRECISION/wide":         "6d900804d2ac20ec",
	"RUNLENGTH/DOUBLE PRECISION/wide+nulls":   "7b811d23b84f2888",
	"RUNLENGTH/TIMESTAMP/narrow":              "3524e01d01f8f232",
	"RUNLENGTH/TIMESTAMP/narrow+nulls":        "a89fbad1b3b0d822",
	"RUNLENGTH/TIMESTAMP/wide":                "dc44b71ad58d6248",
	"RUNLENGTH/TIMESTAMP/wide+nulls":          "cccbd8963e29c26d",
	"RUNLENGTH/VARCHAR/narrow":                "403cf453ab01783a",
	"RUNLENGTH/VARCHAR/narrow+nulls":          "81a65bd117856e00",
	"RUNLENGTH/VARCHAR/wide":                  "19e3f5e9b6baacf3",
	"RUNLENGTH/VARCHAR/wide+nulls":            "b4a2c62f1fe74187",
	"RUNLENGTH/dirty-nulls":                   "580c566bf9713b0c",
	"TEXT/VARCHAR/narrow":                     "463f1d9925e3eff1",
	"TEXT/VARCHAR/narrow+nulls":               "0e6d89a4c5e6c15a",
	"TEXT/VARCHAR/wide":                       "73e9b6d786ee1e27",
	"TEXT/VARCHAR/wide+nulls":                 "265889044c07b009",
}
