package storage

// Per-table statistics surface for the planner: ColumnStats summarizes
// the maintained column statistics (store footer) extended over the
// in-memory tail, and CountRegionCandidates counts a region's index
// candidates without visiting a row. Together they are what a SkyNode's
// StatsSummary RPC serves, replacing the count-star probe as the
// chain-ordering signal.

import (
	"fmt"
	"sort"

	"skyquery/internal/htm"
	"skyquery/internal/sphere"
	"skyquery/internal/stats"
)

// ColumnStats returns per-column statistics summaries covering every row
// of the table at the time of the call (index-aligned with the schema).
// The result is nil for a disk-backed table recovered from a pre-stats
// footer with sealed history: those statistics cannot be reconstructed
// without reading the cold tier, and callers fall back to
// statistics-free (count-star) planning. Summaries are cached at the
// current row count; append-only tables make that the only staleness
// signal.
func (t *Table) ColumnStats() []*stats.ColSummary {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	t.mu.RLock()
	n := t.rows
	if t.statsRows == n && t.statsCache != nil {
		t.mu.RUnlock()
		return t.statsCache
	}
	cols := t.colStatsLocked(n)
	t.mu.RUnlock()
	if cols == nil {
		t.statsCache, t.statsRows = nil, n
		return nil
	}
	out := make([]*stats.ColSummary, len(cols))
	for i, c := range cols {
		out[i] = stats.Summarize(c)
	}
	t.statsCache, t.statsRows = out, n
	return out
}

// colStatsLocked builds the full-table column statistics at n rows: the
// persisted statistics of the sealed prefix (cloned) with the in-memory
// tail folded on top, or a full scan for plain in-memory tables. The
// caller holds the read lock.
func (t *Table) colStatsLocked(n int) []*stats.Col {
	var cols []*stats.Col
	base := 0
	if t.persist != nil {
		ps := t.persist.colStats
		if ps == nil {
			return nil // pre-stats sealed history: nothing to extend
		}
		cols = make([]*stats.Col, len(ps))
		for i, c := range ps {
			cols[i] = c.Clone()
		}
		base = t.persist.durable
	} else {
		cols = t.newStats()
	}
	for ci, col := range t.cols {
		col.foldStats(cols[ci], base, n, t.memBase)
	}
	return cols
}

// CountRegionCandidates returns the number of HTM index candidates of a
// region: rows whose leaf trixel intersects the cover of the region's
// bounding cap, counted by two binary searches per cover range — no row
// is visited, no position computed. An upper bound on the rows a
// SearchRegionBatch of the same region would test, at pure index-walk
// cost.
func (t *Table) CountRegionCandidates(reg sphere.Region) (int, error) {
	t.mu.RLock()
	s := t.spatial
	t.mu.RUnlock()
	if s == nil {
		return 0, fmt.Errorf("storage: table %q has no spatial index", t.name)
	}
	if s.dirty.Load() {
		s.rebuildMu.Lock()
		if s.dirty.Load() {
			t.mu.RLock()
			t.rebuildSpatialLocked()
			t.mu.RUnlock()
		}
		s.rebuildMu.Unlock()
	}
	c := reg.Bounding()
	sub := htm.LevelForRadius(c.Radius)
	if sub > s.cfg.Level {
		sub = s.cfg.Level
	}
	cov := htm.CoverCap(c, sub, s.cfg.Level)

	t.mu.RLock()
	defer t.mu.RUnlock()
	sn := s.snap.Load()
	count := 0
	cov.Each(func(r htm.Range, _ bool) bool {
		lo := sort.Search(len(sn.order), func(i int) bool { return sn.ids[sn.order[i]] >= r.Lo })
		hi := sort.Search(len(sn.order), func(i int) bool { return sn.ids[sn.order[i]] > r.Hi })
		count += hi - lo
		return true
	})
	return count, nil
}
