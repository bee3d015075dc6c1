package stream

import (
	"fmt"
	"strconv"
	"time"
)

// The star schema shared by scan_agg and join_groupby. Column shapes are
// chosen so COPY's compression analyzer has a reason to pick each codec:
// a near-sequential key (DELTA), a sorted date (RUNLENGTH), ids of three
// magnitudes (MOSTLY8/16/32), a five-value status (BYTEDICT) and free text
// (TEXT/LZO). Prices are multiples of 0.25 so every SUM and AVG is exact
// in float64 whatever order the slices and morsels merge in — result
// digests must not depend on summation order.
const (
	factRows  = 400_000
	factParts = 8
	factDays  = 730 // 2014-01-01 .. 2015-12-31
	stores    = 200
	noteTags  = 64
	priceStep = 4000 // prices are (1..priceStep) * 0.25
)

var (
	factEpoch = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	statuses  = []string{"open", "shipped", "returned", "cancelled", "pending"}
)

const factDDL = `CREATE TABLE bm_fact (
	f_order BIGINT NOT NULL, f_date DATE NOT NULL, f_cust BIGINT, f_prod BIGINT, f_store BIGINT,
	f_qty BIGINT, f_price DOUBLE PRECISION, f_status VARCHAR(12), f_note VARCHAR(32)
) DISTSTYLE KEY DISTKEY(f_order) COMPOUND SORTKEY(f_date)`

// starDims sizes the dimension domains for a fact table of rows lines.
type starDims struct {
	rows, orders, custs, prods int
}

func dimsFor(rows int) starDims {
	return starDims{rows: rows, orders: (rows + 1) / 2, custs: rows/8 + 1, prods: rows/20 + 1}
}

// dayString renders day offset d as a DATE literal body.
func dayString(d int) string { return factEpoch.AddDate(0, 0, d).Format("2006-01-02") }

// factTable renders the fact table: two lines per order, dates ascending
// with the row number so each part (rows are dealt round-robin) is sorted.
func factTable(seed int64, d starDims) Table {
	rng := subRand(seed, 1)
	bufs := make([][]byte, factParts)
	per := d.rows/factParts + 1
	for i := range bufs {
		bufs[i] = make([]byte, 0, per*72)
	}
	var decoded int64
	for i := 0; i < d.rows; i++ {
		b := bufs[i%factParts]
		b = strconv.AppendInt(b, int64(i/2), 10)
		b = append(b, '|')
		b = append(b, dayString(i*factDays/d.rows)...)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(rng.Intn(d.custs)), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(rng.Intn(d.prods)), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(rng.Intn(stores)), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(1+rng.Intn(40)), 10)
		b = append(b, '|')
		b = strconv.AppendFloat(b, float64(1+rng.Intn(priceStep))*0.25, 'f', 2, 64)
		b = append(b, '|')
		status := statuses[rng.Intn(len(statuses))]
		b = append(b, status...)
		b = append(b, '|')
		n0 := len(b)
		b = append(b, "tag"...)
		b = strconv.AppendInt(b, int64(10+rng.Intn(noteTags)), 10)
		b = append(b, '-')
		b = strconv.AppendUint(b, uint64(rng.Int63()), 36)
		decoded += 7*8 + int64(len(status)+len(b)-n0) + 2*16
		b = append(b, '\n')
		bufs[i%factParts] = b
	}
	t := Table{Name: "bm_fact", DDL: factDDL, Objects: bufs, Rows: d.rows, DecodedBytes: decoded}
	for _, b := range bufs {
		t.UserBytes += int64(len(b))
	}
	return t
}

// dimTables renders the three dimensions of the star: bm_store replicated
// to every node (DISTSTYLE ALL), bm_order co-located with the fact table on
// the order key (the large build side), and bm_prod distributed on its own
// key so a join to it must move rows (broadcast or shuffle).
func dimTables(seed int64, d starDims) []Table {
	rng := subRand(seed, 2)
	one := func(name, ddl string, rows int, decodedPerRow int64, row func(b []byte, i int) []byte) Table {
		b := make([]byte, 0, rows*24)
		for i := 0; i < rows; i++ {
			b = row(b, i)
			b = append(b, '\n')
		}
		return Table{Name: name, DDL: ddl, Objects: [][]byte{b}, Rows: rows, UserBytes: int64(len(b)), DecodedBytes: decodedPerRow * int64(rows)}
	}
	store := one("bm_store",
		`CREATE TABLE bm_store (s_store BIGINT NOT NULL, s_region BIGINT, s_name VARCHAR(16)) DISTSTYLE ALL`,
		stores, 40, func(b []byte, i int) []byte {
			return append(b, fmt.Sprintf("%d|%d|store-%03d", i, i%10, i)...)
		})
	order := one("bm_order",
		`CREATE TABLE bm_order (o_order BIGINT NOT NULL, o_cust BIGINT, o_prio BIGINT) DISTSTYLE KEY DISTKEY(o_order) COMPOUND SORTKEY(o_order)`,
		d.orders, 24, func(b []byte, i int) []byte {
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(rng.Intn(d.custs)), 10)
			b = append(b, '|')
			return strconv.AppendInt(b, int64(rng.Intn(5)), 10)
		})
	prod := one("bm_prod",
		`CREATE TABLE bm_prod (p_prod BIGINT NOT NULL, p_cat BIGINT, p_brand VARCHAR(16)) DISTSTYLE KEY DISTKEY(p_prod)`,
		d.prods, 40, func(b []byte, i int) []byte {
			return append(b, fmt.Sprintf("%d|%d|brand-%02d", i, rng.Intn(50), rng.Intn(40))...)
		})
	return []Table{store, order, prod}
}

// eventsTable renders serve_point's table, shaped like the multi-tenant
// trace's wl_events but loaded sorted on a unique timestamp so a point
// lookup touches one block per slice at most.
func eventsTable(seed int64, rows int) Table {
	rng := subRand(seed, 3)
	parts := 4
	bufs := make([][]byte, parts)
	for i := 0; i < rows; i++ {
		b := bufs[i%parts]
		b = strconv.AppendInt(b, eventsBase+int64(i), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(rng.Intn(eventUsers)), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(rng.Intn(eventTypes)), 10)
		b = append(b, '|')
		b = strconv.AppendFloat(b, float64(rng.Intn(4000))*0.25, 'f', 2, 64)
		b = append(b, '\n')
		bufs[i%parts] = b
	}
	t := Table{
		Name:         "sp_events",
		DDL:          `CREATE TABLE sp_events (e_ts BIGINT NOT NULL, e_user BIGINT, e_type BIGINT, e_val DOUBLE PRECISION) DISTSTYLE KEY DISTKEY(e_ts) COMPOUND SORTKEY(e_ts)`,
		Objects:      bufs,
		Rows:         rows,
		DecodedBytes: int64(rows) * 32,
	}
	for _, b := range bufs {
		t.UserBytes += int64(len(b))
	}
	return t
}

const (
	eventsBase = 1_000_000
	eventUsers = 500
	eventTypes = 8
)
