package storage

// Zone maps: per-block min/max + null-count statistics over the numeric
// columns, letting compiled comparison predicates (eval.AnalyzePrune) skip
// whole blocks of a base-table scan before any kernel runs. Statistics are
// kept per ZoneBlockRows rows, built lazily on first use and invalidated
// by row-count changes (tables are append-only: a map built at n rows is
// exact for the first n rows forever).
//
// Exactness (see the prune-analysis contract in internal/eval/prune.go):
// a block is skipped only when the pruning conjunct can never be TRUE on
// it AND skipping cannot hide an error the row-at-a-time scan would have
// surfaced — either the whole predicate is statically error-free (then
// all-NULL blocks prune too), or the conjunct's prefix is error-free and
// the block has no NULLs in the pruned column (the conjunct is strictly
// FALSE everywhere, so the AND short-circuit provably killed the rest).
// Min/max are stored widened to float64, the exact image the comparison
// kernels compare against (float64 conversion of int64 is monotonic), and
// a float block containing NaN never prunes: NaN compares equal to
// everything in this engine.

import (
	"math"

	"skyquery/internal/eval"
)

// ZoneBlockRows is the row granularity of the zone maps (and of the
// block-aligned base-table scan that consults them).
const ZoneBlockRows = 1024

// zone holds the statistics of one block of one numeric column. min/max
// cover the non-NULL values only and are meaningless when nulls == rows.
type zone struct {
	min, max float64
	nulls    int32
	rows     int32
	hasNaN   bool
}

// strZone is zone for STRING columns: byte-wise min/max over the
// non-NULL values (the order value.Compare uses), null and row counts.
// Strings have no NaN analogue; every other exactness rule of the
// numeric path — all-NULL blocks prune only under Safe, PrefixSafe needs
// nulls == 0 — carries over unchanged.
type strZone struct {
	min, max string
	nulls    int32
	rows     int32
}

// zoneStats is the zone of one block of one column: numeric for INT and
// FLOAT columns, isStr for STRING ones, neither for BOOL columns (and
// for a sealed STRING block whose bounds overflow the footer's u16
// string frame), which never prune.
type zoneStats struct {
	z       zone
	numeric bool
	sz      strZone
	isStr   bool
}

// zoneSet is a table's zone maps at a fixed row count.
type zoneSet struct {
	rows int
	cols [][]zoneStats // [column][block]
}

// zoneMaps returns the zone maps covering the table's first n rows,
// rebuilding when the cached set was built at a different count. The
// rebuild runs under the table's read lock (so it never observes a
// half-appended row); concurrent scans serialize it on zoneMu. zoneMu
// nests outside the read lock and is never taken by a writer, so the
// pair cannot deadlock against a queued append.
func (t *Table) zoneMaps(n int) *zoneSet {
	t.zoneMu.Lock()
	defer t.zoneMu.Unlock()
	if t.zones == nil || t.zones.rows != n {
		t.mu.RLock()
		t.zones = buildZoneSet(t, n)
		t.mu.RUnlock()
	}
	return t.zones
}

// zoneOfNums computes one block's statistics from an INT or FLOAT column
// slice. Each value is widened to float64 before the min/max test: the
// conversion is monotonic, so the widened extremes are the extremes'
// images exactly.
func zoneOfNums[T int64 | float64](vals []T, nulls []bool) zoneStats {
	z := zone{rows: int32(len(vals))}
	first := true
	for i, x := range vals {
		if nulls[i] {
			z.nulls++
			continue
		}
		v := float64(x)
		if math.IsNaN(v) {
			z.hasNaN = true
			continue
		}
		if first {
			z.min, z.max, first = v, v, false
			continue
		}
		if v < z.min {
			z.min = v
		}
		if v > z.max {
			z.max = v
		}
	}
	return zoneStats{z: z, numeric: true}
}

// zoneOfStrings computes one block's statistics from a STRING column
// slice (byte-wise min/max, the order value.Compare uses on strings).
func zoneOfStrings(vals []string, nulls []bool) zoneStats {
	z := strZone{rows: int32(len(vals))}
	first := true
	for i, v := range vals {
		if nulls[i] {
			z.nulls++
			continue
		}
		if first {
			z.min, z.max, first = v, v, false
			continue
		}
		if v < z.min {
			z.min = v
		}
		if v > z.max {
			z.max = v
		}
	}
	return zoneStats{sz: z, isStr: true}
}

// buildZoneSet computes the per-block statistics of the first n rows
// (caller holds the read lock). Blocks below the hot/cold boundary take
// their statistics straight from the footer metadata — no block data is
// read. When n cuts inside a sealed cold block (a snapshot older than
// the seal) the full-block statistics stand in: wider min/max and extra
// null counts only make pruning more conservative, never wrong.
func buildZoneSet(t *Table, n int) *zoneSet {
	zs := &zoneSet{rows: n, cols: make([][]zoneStats, len(t.cols))}
	nBlocks := (n + ZoneBlockRows - 1) / ZoneBlockRows
	for ci, col := range t.cols {
		blocks := make([]zoneStats, nBlocks)
		for b := range blocks {
			lo := b * ZoneBlockRows
			hi := min(lo+ZoneBlockRows, n)
			if hi <= t.memBase {
				blocks[b] = t.persist.blocks[ci][b].zoneStats
				continue
			}
			blocks[b] = col.zone(lo-t.memBase, hi-t.memBase)
		}
		zs.cols[ci] = blocks
	}
	return zs
}

// prunable reports whether block b of the scan can be skipped for the
// given prune set: some pruner proves its conjunct never TRUE on the
// block, under the error-exactness conditions documented above.
func (zs *zoneSet) prunable(b int, ps eval.PruneSet) bool {
	for _, p := range ps.Pruners {
		if p.Slot >= len(zs.cols) || b >= len(zs.cols[p.Slot]) {
			continue
		}
		s := &zs.cols[p.Slot][b]
		var allNull, rangeDead bool
		var nulls int32
		if p.IsStr {
			z := s.sz
			if !s.isStr || z.rows == 0 {
				continue
			}
			nulls = z.nulls
			allNull = z.nulls == z.rows
			rangeDead = !allNull && p.NeverTrueStr(z.min, z.max)
		} else {
			z := s.z
			if !s.numeric || z.rows == 0 {
				continue
			}
			nulls = z.nulls
			// allNull implies no NaN: hasNaN is only set for non-NULL cells.
			allNull = z.nulls == z.rows
			// A block with NaN values cannot be bounded by a range test (and
			// its min/max are meaningless when every other cell is NULL).
			rangeDead = !z.hasNaN && !allNull && p.NeverTrue(z.min, z.max)
		}
		if ps.Safe {
			if allNull || rangeDead {
				return true
			}
			continue
		}
		if p.PrefixSafe && nulls == 0 && rangeDead {
			return true
		}
	}
	return false
}
