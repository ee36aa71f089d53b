package storage

// Typed columns. Every column — resident table memory and decoded cold
// blocks alike — is one typedCol[T]: a native value slice plus per-cell
// NULL flags, for T in int64, float64, string and bool. Its operations
// (append, truncate, block encode and decode, zone and statistics folds,
// views and gathers) are written once; what differs by kind — boxing,
// the eval.Vector setters, the block payload codec, the statistics and
// zone folds — sits in one colKind table per type. A column is bound to
// its kind when it is made (newColumn, decodeBlock), so no operation
// dispatches on type again.
//
// The hot loops stay concrete: Go stencils generics per GC shape, the
// four element types are four distinct shapes, and each loop below
// consults its kind table once per call, never per row. Boxing happens
// only behind the boxed API (append, get).
//
// Views and gathers hand the typed batch engine (eval.Vector /
// eval.CompileTyped) the column slices directly — a base-table scan
// feeds kernels without boxing or copying a cell — and gather scattered
// candidate rows (HTM search results, chain-step candidates) into pooled
// typed scratch. Disk-backed tables route the same calls through the
// hot/cold split: resident rows read table memory, rows in evicted
// sealed blocks hydrate through the tableStore block cache and are
// viewed (or gathered) from the decoded block.
//
// Everything here follows the ValueUnlocked read discipline: call only
// inside a read context (a Scan or SearchCapBatch/SearchRegionBatch
// callback, a BeginRead/EndRead section, or the federation's
// bulk-load-then-read phase discipline), and never write through a view.

import (
	"fmt"

	"skyquery/internal/eval"
	"skyquery/internal/stats"
	"skyquery/internal/value"
)

// cellType is the set of native column element types.
type cellType interface {
	int64 | float64 | string | bool
}

// column is one typed column behind the table and the block cache; its
// only implementation is typedCol.
type column interface {
	append(v value.Value) error
	get(i int) value.Value
	truncate(n int)
	dropPrefix(k int)
	appendFrom(src column) error
	view(dst *eval.Vector, lo, hi int)
	gather(dst *eval.Vector, rows, sel []int)
	gatherTiered(dst *eval.Vector, rows, sel []int, ts *tableStore, ci, base int)
	encode(dst []byte, lo, hi int) []byte
	foldStats(cs *stats.Col, lo, hi, base int)
	zone(lo, hi int) zoneStats
	statsKind() stats.Kind
}

// colKind is everything that differs between the column types.
type colKind[T cellType] struct {
	typ    value.Type
	block  uint8 // block-image kind byte (blockfile.go)
	stats  stats.Kind
	box    func(T) value.Value
	unbox  func(value.Value) (T, bool) // false: not storable in this kind
	view   func(*eval.Vector, []T, []bool)
	buf    func(*eval.Vector, int) ([]T, []bool)
	encode func([]byte, []T) []byte
	decode func([]byte, int) ([]T, error)
	stat   func(cs *stats.Col, row int64, v T) // folds one non-NULL cell
	zone   func([]T, []bool) zoneStats
}

var (
	intKind = colKind[int64]{
		typ: value.IntType, block: blockKindInt, stats: stats.KindNumeric,
		box:    value.Int,
		unbox:  func(v value.Value) (int64, bool) { return v.AsInt(), v.Type() == value.IntType },
		view:   (*eval.Vector).SetIntView,
		buf:    (*eval.Vector).IntBuf,
		encode: appendInts,
		decode: decodeInts,
		stat:   func(cs *stats.Col, row int64, v int64) { cs.AddNumeric(row, float64(v)) },
		zone:   zoneOfNums[int64],
	}
	floatKind = colKind[float64]{
		typ: value.FloatType, block: blockKindFloat, stats: stats.KindNumeric,
		box:    value.Float,
		unbox:  value.Value.AsFloat,
		view:   (*eval.Vector).SetFloatView,
		buf:    (*eval.Vector).FloatBuf,
		encode: appendFloats,
		decode: decodeFloats,
		stat:   (*stats.Col).AddNumeric,
		zone:   zoneOfNums[float64],
	}
	stringKind = colKind[string]{
		typ: value.StringType, block: blockKindString, stats: stats.KindString,
		box:    value.String,
		unbox:  func(v value.Value) (string, bool) { return v.AsString(), v.Type() == value.StringType },
		view:   (*eval.Vector).SetStrView,
		buf:    (*eval.Vector).StrBuf,
		encode: appendStrings,
		decode: decodeStrings,
		stat:   (*stats.Col).AddString,
		zone:   zoneOfStrings,
	}
	boolKind = colKind[bool]{
		typ: value.BoolType, block: blockKindBool, stats: stats.KindNone,
		box:    value.Bool,
		unbox:  func(v value.Value) (bool, bool) { return v.AsBool(), v.Type() == value.BoolType },
		view:   (*eval.Vector).SetBoolView,
		buf:    (*eval.Vector).BoolBuf,
		encode: appendBools,
		decode: decodeBools,
		stat:   func(cs *stats.Col, _ int64, _ bool) { cs.Rows++ },
		zone:   func([]bool, []bool) zoneStats { return zoneStats{} },
	}
)

// newColumn returns an empty column of the given type.
func newColumn(t value.Type) (column, error) {
	switch t {
	case value.IntType:
		return &typedCol[int64]{k: &intKind}, nil
	case value.FloatType:
		return &typedCol[float64]{k: &floatKind}, nil
	case value.StringType:
		return &typedCol[string]{k: &stringKind}, nil
	case value.BoolType:
		return &typedCol[bool]{k: &boolKind}, nil
	}
	return nil, fmt.Errorf("storage: unsupported column type %v", t)
}

// typedCol is columnar storage of one type with per-cell NULL flags. A
// NULL cell holds T's zero value, in memory and in block images alike.
type typedCol[T cellType] struct {
	k     *colKind[T]
	vals  []T
	nulls []bool
}

func (c *typedCol[T]) append(v value.Value) error {
	var x T
	null := v.IsNull()
	if !null {
		var ok bool
		if x, ok = c.k.unbox(v); !ok {
			return fmt.Errorf("storage: cannot store %v in %v column", v.Type(), c.k.typ)
		}
	}
	c.vals = append(c.vals, x)
	c.nulls = append(c.nulls, null)
	return nil
}

func (c *typedCol[T]) get(i int) value.Value {
	if c.nulls[i] {
		return value.Null
	}
	return c.k.box(c.vals[i])
}

// truncate keeps the first n rows (rolls back a partial append).
func (c *typedCol[T]) truncate(n int) {
	c.vals, c.nulls = c.vals[:n], c.nulls[:n]
}

// dropPrefix removes the first k rows, copying the remainder into fresh
// slices so evicted rows are collectable.
func (c *typedCol[T]) dropPrefix(k int) {
	c.vals = append([]T(nil), c.vals[k:]...)
	c.nulls = append([]bool(nil), c.nulls[k:]...)
}

// appendFrom appends every row of src (a decoded block of the same
// schema slot, hence the same type).
func (c *typedCol[T]) appendFrom(src column) error {
	s, ok := src.(*typedCol[T])
	if !ok {
		return fmt.Errorf("storage: block type mismatch: want %v", c.k.typ)
	}
	c.vals = append(c.vals, s.vals...)
	c.nulls = append(c.nulls, s.nulls...)
	return nil
}

// view points dst at rows [lo, hi) without copying.
func (c *typedCol[T]) view(dst *eval.Vector, lo, hi int) {
	c.k.view(dst, c.vals[lo:hi], c.nulls[lo:hi])
}

// gather fills dst by batch position: dst[k] = cell(rows[k]) for every k
// in sel, or for every k when sel is nil.
func (c *typedCol[T]) gather(dst *eval.Vector, rows, sel []int) {
	vals, nulls := c.k.buf(dst, len(rows))
	src, srcNulls := c.vals, c.nulls
	if sel == nil {
		for k, r := range rows {
			vals[k], nulls[k] = src[r], srcNulls[r]
		}
		return
	}
	for _, k := range sel {
		r := rows[k]
		vals[k], nulls[k] = src[r], srcNulls[r]
	}
}

// gatherTiered is gather for a table whose rows below base are cold:
// resident rows read c (which starts at row base), cold rows read
// column ci's hydrated blocks, memoizing the last one — search order
// clusters candidates, so consecutive rows usually share a block.
func (c *typedCol[T]) gatherTiered(dst *eval.Vector, rows, sel []int, ts *tableStore, ci, base int) {
	vals, nulls := c.k.buf(dst, len(rows))
	n := len(sel)
	if sel == nil {
		n = len(rows)
	}
	lastB := -1
	var blk *typedCol[T]
	for i := 0; i < n; i++ {
		k := i
		if sel != nil {
			k = sel[i]
		}
		r := rows[k]
		if r >= base {
			vals[k], nulls[k] = c.vals[r-base], c.nulls[r-base]
			continue
		}
		if b := r / ZoneBlockRows; b != lastB {
			lastB, blk = b, ts.mustBlock(ci, b).(*typedCol[T])
		}
		j := r % ZoneBlockRows
		vals[k], nulls[k] = blk.vals[j], blk.nulls[j]
	}
}

// encode appends the block image of rows [lo, hi) (blockfile.go).
func (c *typedCol[T]) encode(dst []byte, lo, hi int) []byte {
	dst = appendBlockHeader(dst, c.k.block, c.nulls[lo:hi])
	return c.k.encode(dst, c.vals[lo:hi])
}

// foldStats folds rows [lo, hi) (absolute indices, resident at
// index-base) into maintained statistics.
func (c *typedCol[T]) foldStats(cs *stats.Col, lo, hi, base int) {
	for r := lo; r < hi; r++ {
		if c.nulls[r-base] {
			cs.AddNull()
		} else {
			c.k.stat(cs, int64(r), c.vals[r-base])
		}
	}
}

// zone computes the zone statistics of rows [lo, hi).
func (c *typedCol[T]) zone(lo, hi int) zoneStats {
	return c.k.zone(c.vals[lo:hi], c.nulls[lo:hi])
}

func (c *typedCol[T]) statsKind() stats.Kind { return c.k.stats }

// ColumnView points dst at rows [lo, hi) of column ci without copying:
// the contiguous feeder for block-aligned base-table scans. The range
// must not straddle the hot/cold boundary — block-aligned scans never
// do, because the boundary is itself block-aligned. A cold range views
// the hydrated block directly.
func (t *Table) ColumnView(dst *eval.Vector, ci, lo, hi int) {
	if lo >= t.memBase {
		t.cols[ci].view(dst, lo-t.memBase, hi-t.memBase)
		return
	}
	b := lo / ZoneBlockRows
	base := b * ZoneBlockRows
	t.persist.mustBlock(ci, b).view(dst, lo-base, hi-base)
}

// GatherColumn fills dst by batch position with column ci of the given
// table rows (dst[k] = cell(rows[k], ci)), natively, without boxing a
// cell.
func (t *Table) GatherColumn(dst *eval.Vector, ci int, rows []int) {
	t.gather(dst, ci, rows, nil)
}

// GatherColumnSel is GatherColumn restricted to the batch positions in
// sel: dst[k] = cell(rows[k], ci) for k in sel. Scan sites use it to
// gather post-predicate columns only for surviving rows; other positions
// hold stale scratch and must not be read.
func (t *Table) GatherColumnSel(dst *eval.Vector, ci int, rows []int, sel []int) {
	if sel == nil {
		sel = []int{} // no survivors; a nil sel would gather every position
	}
	t.gather(dst, ci, rows, sel)
}

func (t *Table) gather(dst *eval.Vector, ci int, rows, sel []int) {
	if t.memBase > 0 {
		t.cols[ci].gatherTiered(dst, rows, sel, t.persist, ci, t.memBase)
		return
	}
	t.cols[ci].gather(dst, rows, sel)
}
