// Package storage is the embedded database engine behind each SkyNode: a
// columnar store with typed columns (typedcol.go), predicate scans, an
// HTM spatial index for the range searches of §5.4 and the cross-match
// chain step of §5.3, a small single-table SQL executor that answers the
// Portal's performance queries, and an optional disk-backed tier (Store)
// so archives survive restarts and grow past RAM.
//
// The paper treats component DBMSs as black boxes; this package is the
// concrete box the reproduction ships so the federation is self-contained.
//
// # On-disk format
//
// A disk-backed table (store.go) is a directory of per-column block
// files holding sealed ZoneBlockRows-row blocks (blockfile.go), an
// htm.bin of per-row HTM leaf IDs, a footer that is the atomic commit
// point — schema, durable row count, and per-block offset/size/CRC plus
// zone statistics and HTM ID ranges (footer.go) — and a write-ahead log
// framing every acknowledged append with a per-record CRC (wal.go).
// Recovery reads the footer, replays the WAL tail and truncates a torn
// tail; the full protocol and its invariants are documented in store.go.
// Sealed blocks beyond the hot budget are evicted from Table memory and
// hydrate back on demand through the ColumnView/GatherColumn seam.
//
// Scans run the typed batch engine (eval.CompileTyped) straight over the
// columnar backends. Two disciplines matter:
//
//   - Read discipline: the typed column views (ColumnView and the
//     Gather* helpers in typedcol.go) hand out the live backing
//     slices. Like ValueUnlocked they must only be used inside a read
//     context — a Scan, SearchCapBatch or SearchRegionBatch callback, a
//     BeginRead/EndRead section, or the federation's bulk-load-then-read
//     phase discipline — and never written through.
//   - Zone-map discipline (zonemap.go): per-ZoneBlockRows-block min/max +
//     null-count statistics are built lazily at first scan after load and
//     invalidated by row-count changes. A base-table scan consults them
//     through eval.AnalyzePrune before touching a block, so predicates
//     that exclude whole blocks never gather a cell or run a kernel; the
//     pruning conditions are exact about values, NULLs, NaN and the row
//     engines' error order. The same statistics also prune *below* the
//     HTM searches: SearchCapBatch and SearchRegionBatch consult a
//     CandPruner (candprune.go) per candidate row, dropping candidates
//     from provably dead blocks before a position is computed or a cell
//     gathered, and yield the survivors as candidate row blocks.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"skyquery/internal/htm"
	"skyquery/internal/sphere"
	"skyquery/internal/stats"
	"skyquery/internal/value"
)

// ColumnDef describes one column of a table.
type ColumnDef struct {
	Name string
	Type value.Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Table is a columnar table. Concurrent readers are safe with each
// other, and appends are safe with concurrent reads: every read path
// runs under the table's read lock (scans and searches take it
// internally; external multi-call read sections bracket themselves with
// BeginRead/EndRead), so a reader sees a consistent row-count snapshot
// and never a half-appended row. Rows appended mid-query simply miss
// that query's snapshot, exactly as if the query had started earlier.
type Table struct {
	name   string
	schema Schema

	mu      sync.RWMutex
	cols    []column
	rows    int
	spatial *spatialIndex

	// Disk-backed tables (store.go): cols holds only rows [memBase, rows)
	// — the hot sealed blocks plus the unsealed tail. memBase is always
	// ZoneBlockRows-aligned and 0 for plain in-memory tables; rows below
	// it are cold and hydrate from sealed blocks via persist.
	memBase int
	persist *tableStore

	// zones caches the zone maps of the first zones.rows rows (see
	// zonemap.go); append-only tables make row count the only staleness
	// signal. zoneMu serializes the lazy rebuild across concurrent scans.
	zoneMu sync.Mutex
	zones  *zoneSet

	// statsCache caches ColumnStats summaries at statsRows rows, under the
	// same append-only staleness rule as zones.
	statsMu    sync.Mutex
	statsCache []*stats.ColSummary
	statsRows  int
}

// NewTable creates a detached table (not registered in any DB).
func NewTable(name string, schema Schema) (*Table, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("storage: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	t := &Table{name: name, schema: append(Schema(nil), schema...)}
	for _, def := range schema {
		if seen[def.Name] {
			return nil, fmt.Errorf("storage: duplicate column %q in table %q", def.Name, name)
		}
		seen[def.Name] = true
		c, err := newColumn(def.Type)
		if err != nil {
			return nil, err
		}
		t.cols = append(t.cols, c)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema {
	return append(Schema(nil), t.schema...)
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Append adds one row; vals must match the schema arity and types
// (NULL is accepted in any column). On a disk-backed table the row is
// framed into the write-ahead log before Append returns — a returned nil
// is the durability acknowledgement — and filling a block may trigger a
// flush that seals blocks and evicts cold ones.
func (t *Table) Append(vals ...value.Value) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("storage: table %q expects %d values, got %d", t.name, len(t.schema), len(vals))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.appendRowLocked(vals); err != nil {
		return err
	}
	if t.persist != nil {
		// Log after the memory append: a crash in between loses a row that
		// was never acknowledged, while a log failure rolls memory back, so
		// an acknowledged row is always in both places.
		if err := t.persist.wal.appendRow(vals); err != nil {
			for _, c := range t.cols {
				c.truncate(t.rows - t.memBase)
			}
			return fmt.Errorf("storage: table %q: %w", t.name, err)
		}
	}
	t.rows++
	if t.spatial != nil {
		t.spatial.dirty.Store(true)
	}
	if t.persist != nil && t.rows%ZoneBlockRows == 0 &&
		t.rows-t.persist.durable >= t.persist.opts.FlushBlocks*ZoneBlockRows {
		if err := t.persist.flushLocked(); err != nil {
			// The row itself is durable (memory + WAL); surface the failed
			// seal so the caller can stop ingesting.
			return fmt.Errorf("storage: table %q flush: %w", t.name, err)
		}
	}
	return nil
}

// appendRowLocked appends one schema-arity row to the columns (caller
// holds the write lock). A cell its column cannot store rolls the
// partial row back, keeping the columns aligned, and fails the row.
func (t *Table) appendRowLocked(vals []value.Value) error {
	memLen := t.rows - t.memBase
	for i, v := range vals {
		if err := t.cols[i].append(v); err != nil {
			for _, c := range t.cols[:i] {
				c.truncate(memLen)
			}
			return fmt.Errorf("storage: table %q column %q: %w", t.name, t.schema[i].Name, err)
		}
	}
	return nil
}

// BeginRead acquires the table's read lock for a multi-call read section
// — a sequence of ValueUnlocked/Gather*/Fill* calls that must observe a
// consistent snapshot against concurrent appends. Pair with EndRead.
// Do not call Append, or any locked accessor (Value, Row, RowCount,
// Scan, SearchCapBatch, SearchRegionBatch), from inside the section.
func (t *Table) BeginRead() { t.mu.RLock() }

// EndRead releases the read lock taken by BeginRead.
func (t *Table) EndRead() { t.mu.RUnlock() }

// cellLocked returns the cell at (absolute row, col); the caller is in a
// read context. Rows below memBase hydrate from the cold tier.
func (t *Table) cellLocked(row, ci int) value.Value {
	if row >= t.memBase {
		return t.cols[ci].get(row - t.memBase)
	}
	return t.persist.coldCell(ci, row)
}

// rowLocked returns a copy of row i (read context).
func (t *Table) rowLocked(i int) []value.Value {
	out := make([]value.Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cellLocked(i, c)
	}
	return out
}

// Value returns the cell at (row, col).
func (t *Table) Value(row, col int) value.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cellLocked(row, col)
}

// ValueUnlocked is Value without the read lock, for code that is already
// inside a read context — a batch search callback, a BeginRead/EndRead
// section, or the bulk-load-then-read phase discipline the federation
// follows (row environments created by Env read the same way). Callers
// outside such a context must use Value.
func (t *Table) ValueUnlocked(row, col int) value.Value {
	return t.cellLocked(row, col)
}

// Row returns a copy of row i.
func (t *Table) Row(i int) []value.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowLocked(i)
}

// Scan calls fn for each row index in order until fn returns false.
// The callback must not mutate the table.
func (t *Table) Scan(fn func(row int) bool) {
	t.mu.RLock()
	n := t.rows
	t.mu.RUnlock()
	for i := 0; i < n; i++ {
		if !fn(i) {
			return
		}
	}
}

// SpatialConfig designates the position columns of a table and the HTM
// leaf level at which objects are indexed.
type SpatialConfig struct {
	RACol, DecCol string
	// Level is the HTM leaf level; 0 picks a sensible default (level 14,
	// about 5.5 milli-degree trixels).
	Level int
}

// DefaultSpatialLevel is used when SpatialConfig.Level is zero.
const DefaultSpatialLevel = 14

type spatialIndex struct {
	cfg   SpatialConfig
	raIdx int
	deIdx int

	// snap is the published index data. Snapshots are immutable once
	// stored: a rebuild extends a copy and publishes a fresh snapshot, so
	// a search walking an older one is never disturbed — it just sees the
	// rows that existed when that snapshot was built.
	snap atomic.Pointer[spatialSnap]

	// dirty marks the index stale after appends. It is rebuilt lazily on
	// the next search, under rebuildMu rather than the table's write lock:
	// a search queuing a write lock while sibling searches hold read locks
	// would deadlock against their nested read acquisitions (Position,
	// Value, Row inside search callbacks).
	dirty     atomic.Bool
	rebuildMu sync.Mutex
}

// spatialSnap is one immutable build of the index data.
type spatialSnap struct {
	ids   []htm.ID // per-row leaf trixel, in row order
	order []int32  // row indices sorted by ids
}

// EnableSpatial builds an HTM index over the given position columns.
// Subsequent appends mark the index dirty; it is rebuilt on first use.
func (t *Table) EnableSpatial(cfg SpatialConfig) error {
	if cfg.Level == 0 {
		cfg.Level = DefaultSpatialLevel
	}
	s, err := t.newSpatialIndex(cfg)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spatial = s
	t.rebuildSpatialLocked()
	return nil
}

// newSpatialIndex checks a spatial configuration against the table: a
// valid level and two FLOAT position columns, which positionLocked
// reads unboxed.
func (t *Table) newSpatialIndex(cfg SpatialConfig) (*spatialIndex, error) {
	if cfg.Level < 1 || cfg.Level > htm.MaxLevel {
		return nil, fmt.Errorf("storage: spatial level %d out of range", cfg.Level)
	}
	ra := t.schema.Index(cfg.RACol)
	de := t.schema.Index(cfg.DecCol)
	if ra < 0 || de < 0 {
		return nil, fmt.Errorf("storage: spatial columns %q/%q not in table %q", cfg.RACol, cfg.DecCol, t.name)
	}
	if t.schema[ra].Type != value.FloatType || t.schema[de].Type != value.FloatType {
		return nil, fmt.Errorf("storage: spatial columns must be FLOAT")
	}
	return &spatialIndex{cfg: cfg, raIdx: ra, deIdx: de}, nil
}

// HasSpatial reports whether the table has an HTM index.
func (t *Table) HasSpatial() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.spatial != nil
}

// SpatialLevel returns the HTM leaf level of the index, or 0.
func (t *Table) SpatialLevel() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.spatial == nil {
		return 0
	}
	return t.spatial.cfg.Level
}

// rebuildSpatialLocked extends the index to the table's current rows and
// publishes a fresh snapshot. The caller must hold t.mu (either mode
// suffices: the read lock excludes appends, and writers to the index
// itself serialize on rebuildMu or hold the write lock as EnableSpatial
// does). IDs of rows covered by the previous snapshot are reused, never
// recomputed — appends extend, they do not move rows — so incremental
// rebuilds cost only the new suffix plus the sort, and never touch the
// cold tier.
func (t *Table) rebuildSpatialLocked() {
	s := t.spatial
	var ids []htm.ID
	if old := s.snap.Load(); old != nil && len(old.ids) <= t.rows {
		// Full-capacity slice: the first append below copies, keeping the
		// published snapshot immutable.
		ids = old.ids[:len(old.ids):len(old.ids)]
	}
	for i := len(ids); i < t.rows; i++ {
		ids = append(ids, htm.Lookup(t.positionLocked(i), s.cfg.Level))
	}
	order := make([]int32, len(ids))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		// Tie-break equal trixels by row order so enumeration within one
		// trixel is append order — a shard loaded with any subset of the
		// table in the same relative order ties identically.
		ia, ib := ids[order[a]], ids[order[b]]
		if ia != ib {
			return ia < ib
		}
		return order[a] < order[b]
	})
	s.snap.Store(&spatialSnap{ids: ids, order: order})
	s.dirty.Store(false)
}

// positionLocked returns a row's position (read context). The searches
// call it per candidate, so it reads the two FLOAT cells unboxed; a NULL
// cell holds 0, the value its boxed AsFloat gives.
func (t *Table) positionLocked(row int) sphere.Vec {
	return sphere.FromRaDec(t.floatLocked(row, t.spatial.raIdx), t.floatLocked(row, t.spatial.deIdx))
}

// floatLocked returns FLOAT column ci's cell at an absolute row.
func (t *Table) floatLocked(row, ci int) float64 {
	c, i := t.cols[ci], row-t.memBase
	if row < t.memBase {
		c, i = t.persist.mustBlock(ci, row/ZoneBlockRows), row%ZoneBlockRows
	}
	return c.(*typedCol[float64]).vals[i]
}

// enableSpatialSeeded is EnableSpatial for recovery: the IDs of sealed
// rows come from htm.bin instead of being recomputed (which would
// hydrate every cold block); any missing suffix — replayed WAL rows, or
// a truncated ID file — is computed from in-memory positions.
func (t *Table) enableSpatialSeeded(cfg SpatialConfig, ids []htm.ID) error {
	s, err := t.newSpatialIndex(cfg)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(ids) > t.rows {
		ids = ids[:t.rows]
	}
	t.spatial = s
	t.spatial.snap.Store(&spatialSnap{ids: ids[:len(ids):len(ids)], order: nil})
	t.rebuildSpatialLocked()
	return nil
}

// Position returns the unit vector of a row's position. It requires a
// spatial index.
func (t *Table) Position(row int) (sphere.Vec, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.spatial == nil {
		return sphere.Vec{}, fmt.Errorf("storage: table %q has no spatial index", t.name)
	}
	return t.positionLocked(row), nil
}

// SearchBatch carries the configuration and reusable buffers of the
// spatial searches (SearchCapBatch, SearchRegionBatch), which yield
// candidate row blocks.
type SearchBatch struct {
	// Rows and Pos are the caller-owned candidate buffers; the capacity of
	// Rows bounds the batch size: a batch is emitted once it holds
	// cap(Rows) candidates (the final batch may be smaller). The search
	// appends into them and hands the filled prefixes to the callback. Pos
	// may be nil when the caller does not need candidate positions.
	Rows []int
	Pos  []sphere.Vec
	// Prune, when set, drops candidates whose zone block it proves dead —
	// before the candidate's position is computed, before any containment
	// test, and before the candidate can enter a batch.
	Prune *CandPruner
	// Accept, when set, filters candidates before buffering (the chain
	// steps' AREA containment test). It runs after Prune.
	Accept func(row int, pos sphere.Vec) bool
}

// SearchCapBatch is the HTM range search of §5.4: it walks the cover of
// the cap, accepting inner cover trixels wholesale and testing the rows
// of partial trixels individually, and hands fn the rows inside the cap
// in batches of up to cap(sb.Rows) candidates, in index (trixel) order,
// not row order. Zone-pruned candidates are dropped before a position is
// computed (see SearchBatch). The slices passed to fn alias the
// SearchBatch buffers and are only valid during the call; fn returning
// false stops the search (no final flush).
//
// Searches are safe for concurrent use with other readers, including
// callbacks that read the table (ValueUnlocked, Gather*, Env lookups);
// the parallel chain executor relies on this. Appends may run
// concurrently: the search walks an immutable index snapshot under the
// read lock, so it sees a consistent prefix of the table and never a
// fresher row.
func (t *Table) SearchCapBatch(c sphere.Cap, sb *SearchBatch, fn func(rows []int, pos []sphere.Vec) bool) error {
	limit := cap(sb.Rows)
	if limit == 0 {
		return fmt.Errorf("storage: batch search on %q needs a row buffer with capacity", t.name)
	}
	t.mu.RLock()
	s := t.spatial
	t.mu.RUnlock()
	if s == nil {
		return fmt.Errorf("storage: table %q has no spatial index", t.name)
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

	// Size the cover subdivision to the cap and clamp it to the leaf level.
	sub := htm.LevelForRadius(c.Radius)
	if sub > s.cfg.Level {
		sub = s.cfg.Level
	}
	cov := htm.CoverCap(c, sub, s.cfg.Level)

	sb.Rows = sb.Rows[:0]
	if sb.Pos != nil {
		sb.Pos = sb.Pos[:0]
	}
	flush := func() bool {
		candRowsGathered.Add(int64(len(sb.Rows)))
		ok := fn(sb.Rows, sb.Pos)
		sb.Rows = sb.Rows[:0]
		if sb.Pos != nil {
			sb.Pos = sb.Pos[:0]
		}
		return ok
	}
	needPos := sb.Pos != nil || sb.Accept != nil
	stopped := false

	// The walk holds the read lock; the final partial batch is handed
	// over after it is released.
	func() {
		t.mu.RLock()
		defer t.mu.RUnlock()
		sn := s.snap.Load()
		cov.Each(func(r htm.Range, test bool) bool {
			lo := sort.Search(len(sn.order), func(i int) bool { return sn.ids[sn.order[i]] >= r.Lo })
			for i := lo; i < len(sn.order) && sn.ids[sn.order[i]] <= r.Hi; i++ {
				row := int(sn.order[i])
				if sb.Prune != nil && sb.Prune.Pruned(row) {
					continue
				}
				var pos sphere.Vec
				if test || needPos {
					pos = t.positionLocked(row)
				}
				if test && !c.Contains(pos) {
					continue
				}
				if sb.Accept != nil && !sb.Accept(row, pos) {
					continue
				}
				sb.Rows = append(sb.Rows, row)
				if sb.Pos != nil {
					sb.Pos = append(sb.Pos, pos)
				}
				if len(sb.Rows) >= limit && !flush() {
					stopped = true
					return false
				}
			}
			return true
		})
	}()
	if !stopped && len(sb.Rows) > 0 {
		flush()
	}
	return nil
}

// SearchRegionBatch is SearchCapBatch generalized to any region, with the
// region containment test folded in ahead of sb.Accept.
func (t *Table) SearchRegionBatch(reg sphere.Region, sb *SearchBatch, fn func(rows []int, pos []sphere.Vec) bool) error {
	if c, ok := reg.(sphere.Cap); ok {
		return t.SearchCapBatch(c, sb, fn)
	}
	inner := sb.Accept
	sb.Accept = func(row int, pos sphere.Vec) bool {
		if !reg.Contains(pos) {
			return false
		}
		return inner == nil || inner(row, pos)
	}
	defer func() { sb.Accept = inner }()
	return t.SearchCapBatch(reg.Bounding(), sb, fn)
}
