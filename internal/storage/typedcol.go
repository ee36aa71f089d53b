package storage

// Typed, zero-copy access to the columnar backends. The bulk-loaded
// tables already store each column as a native slice pair (values +
// null flags); these helpers hand those slices to the typed batch engine
// (eval.Vector / eval.CompileTyped) directly — a base-table scan feeds
// kernels without boxing or copying a single cell — and gather scattered
// candidate rows (HTM search results, chain-step candidates) into pooled
// typed scratch instead of boxed values.
//
// Disk-backed tables route the same calls through the hot/cold split:
// resident rows view table memory exactly as before, while rows in
// evicted sealed blocks hydrate through the tableStore block cache and
// are viewed (or gathered) from the decoded slab — this file is the seam
// where cold data enters eval.Vector without an extra copy.
//
// Everything here follows the ValueUnlocked read discipline: call only
// inside a read context (a Scan or Search* callback, a BeginRead/EndRead
// section, or the federation's bulk-load-then-read phase discipline),
// and never write through a view.

import (
	"skyquery/internal/eval"
)

// viewColumn points dst at rows [lo, hi) of a column backend (indices
// relative to that backend's slices).
func viewColumn(dst *eval.Vector, col column, lo, hi int) {
	switch c := col.(type) {
	case *intColumn:
		dst.SetIntView(c.vals[lo:hi], c.nulls[lo:hi])
	case *floatColumn:
		dst.SetFloatView(c.vals[lo:hi], c.nulls[lo:hi])
	case *stringColumn:
		dst.SetStrView(c.vals[lo:hi], c.nulls[lo:hi])
	case *boolColumn:
		dst.SetBoolView(c.vals[lo:hi], c.nulls[lo:hi])
	}
}

// ColumnView points dst at rows [lo, hi) of column ci without copying:
// the contiguous feeder for block-aligned base-table scans. The range
// must not straddle the hot/cold boundary — block-aligned scans never
// do, because the boundary is itself block-aligned. A cold range views
// the hydrated block's slab directly.
func (t *Table) ColumnView(dst *eval.Vector, ci, lo, hi int) {
	if lo >= t.memBase {
		viewColumn(dst, t.cols[ci], lo-t.memBase, hi-t.memBase)
		return
	}
	b := lo / ZoneBlockRows
	base := b * ZoneBlockRows
	viewColumn(dst, t.persist.mustBlock(ci, b), lo-base, hi-base)
}

// GatherColumn fills dst by batch position with column ci of the given
// table rows (dst[k] = cell(rows[k], ci)), natively, without boxing a
// cell.
func (t *Table) GatherColumn(dst *eval.Vector, ci int, rows []int) {
	if t.memBase > 0 {
		t.gatherCold(dst, ci, rows, nil)
		return
	}
	switch c := t.cols[ci].(type) {
	case *intColumn:
		vals, nulls := dst.IntBuf(len(rows))
		for k, r := range rows {
			vals[k], nulls[k] = c.vals[r], c.nulls[r]
		}
	case *floatColumn:
		vals, nulls := dst.FloatBuf(len(rows))
		for k, r := range rows {
			vals[k], nulls[k] = c.vals[r], c.nulls[r]
		}
	case *stringColumn:
		vals, nulls := dst.StrBuf(len(rows))
		for k, r := range rows {
			vals[k], nulls[k] = c.vals[r], c.nulls[r]
		}
	case *boolColumn:
		vals, nulls := dst.BoolBuf(len(rows))
		for k, r := range rows {
			vals[k], nulls[k] = c.vals[r], c.nulls[r]
		}
	}
}

// GatherColumnSel is GatherColumn restricted to the batch positions in
// sel: dst[k] = cell(rows[k], ci) for k in sel. Scan sites use it to
// gather post-predicate columns only for surviving rows; other positions
// hold stale scratch and must not be read.
func (t *Table) GatherColumnSel(dst *eval.Vector, ci int, rows []int, sel []int) {
	if t.memBase > 0 {
		t.gatherCold(dst, ci, rows, sel)
		return
	}
	switch c := t.cols[ci].(type) {
	case *intColumn:
		vals, nulls := dst.IntBuf(len(rows))
		for _, k := range sel {
			r := rows[k]
			vals[k], nulls[k] = c.vals[r], c.nulls[r]
		}
	case *floatColumn:
		vals, nulls := dst.FloatBuf(len(rows))
		for _, k := range sel {
			r := rows[k]
			vals[k], nulls[k] = c.vals[r], c.nulls[r]
		}
	case *stringColumn:
		vals, nulls := dst.StrBuf(len(rows))
		for _, k := range sel {
			r := rows[k]
			vals[k], nulls[k] = c.vals[r], c.nulls[r]
		}
	case *boolColumn:
		vals, nulls := dst.BoolBuf(len(rows))
		for _, k := range sel {
			r := rows[k]
			vals[k], nulls[k] = c.vals[r], c.nulls[r]
		}
	}
}

// gatherCold is the hot/cold-aware gather: resident rows read table
// memory, cold rows read hydrated blocks (memoizing the last block —
// search order clusters candidates, so consecutive rows usually share
// one). sel == nil gathers every position.
func (t *Table) gatherCold(dst *eval.Vector, ci int, rows []int, sel []int) {
	base := t.memBase
	ts := t.persist
	lastB := -1
	var lastCol column
	locate := func(r int) (column, int) {
		if r >= base {
			return t.cols[ci], r - base
		}
		if b := r / ZoneBlockRows; b != lastB {
			lastB, lastCol = b, ts.mustBlock(ci, b)
		}
		return lastCol, r % ZoneBlockRows
	}
	switch t.cols[ci].(type) {
	case *intColumn:
		vals, nulls := dst.IntBuf(len(rows))
		fill := func(k, r int) {
			c, j := locate(r)
			cc := c.(*intColumn)
			vals[k], nulls[k] = cc.vals[j], cc.nulls[j]
		}
		if sel == nil {
			for k, r := range rows {
				fill(k, r)
			}
		} else {
			for _, k := range sel {
				fill(k, rows[k])
			}
		}
	case *floatColumn:
		vals, nulls := dst.FloatBuf(len(rows))
		fill := func(k, r int) {
			c, j := locate(r)
			cc := c.(*floatColumn)
			vals[k], nulls[k] = cc.vals[j], cc.nulls[j]
		}
		if sel == nil {
			for k, r := range rows {
				fill(k, r)
			}
		} else {
			for _, k := range sel {
				fill(k, rows[k])
			}
		}
	case *stringColumn:
		vals, nulls := dst.StrBuf(len(rows))
		fill := func(k, r int) {
			c, j := locate(r)
			cc := c.(*stringColumn)
			vals[k], nulls[k] = cc.vals[j], cc.nulls[j]
		}
		if sel == nil {
			for k, r := range rows {
				fill(k, r)
			}
		} else {
			for _, k := range sel {
				fill(k, rows[k])
			}
		}
	case *boolColumn:
		vals, nulls := dst.BoolBuf(len(rows))
		fill := func(k, r int) {
			c, j := locate(r)
			cc := c.(*boolColumn)
			vals[k], nulls[k] = cc.vals[j], cc.nulls[j]
		}
		if sel == nil {
			for k, r := range rows {
				fill(k, r)
			}
		} else {
			for _, k := range sel {
				fill(k, rows[k])
			}
		}
	}
}
