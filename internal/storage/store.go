package storage

// Store is the disk-backed tier under a DB: each table it owns lives in
// its own directory as per-column block files, an HTM ID file, a footer
// (the atomic commit point) and a write-ahead log.
//
//	<dir>/<table>/col_<i>.blk   sealed ZoneBlockRows-row blocks of column i
//	<dir>/<table>/htm.bin       u64 HTM leaf ID per sealed row
//	<dir>/<table>/footer        schema + durable count + block metadata
//	<dir>/<table>/wal.log       the unsealed tail (every acked append)
//
// Durability protocol (the recovery invariants):
//
//  1. Append frames the row into the WAL before acknowledging; rows are
//     in memory and in the log, never only in memory.
//  2. Only full ZoneBlockRows-row blocks are sealed into block files, so
//     durableRows is always block-aligned and the cold tier is always
//     whole blocks.
//  3. A flush orders writes as: block bytes + HTM IDs (fsync) -> footer
//     temp (fsync) -> footer rename (dir fsync) -> WAL rewritten to the
//     remaining tail. A crash at any point leaves either the old footer
//     (orphan block bytes are overwritten next flush) or the new footer
//     with a stale WAL (replay skips records below durableRows via the
//     log's baseRow header).
//  4. Recovery = read footer, load the hot suffix of sealed blocks,
//     replay the WAL tail onto memory, truncate a torn tail. Nothing
//     acknowledged is ever lost; a torn record was never acknowledged.
//
// Hot/cold split: the most recent StoreOptions.HotBlocks sealed blocks
// (plus the unsealed tail) stay resident in Table memory; older blocks
// are evicted after a flush and hydrate on demand through a small LRU
// cache of decoded blocks (blocklru.go). Table memory and a decoded block
// are the same typedCol (typedcol.go): a block decodes straight into the
// column type its table holds, so recovery appends it to memory, a flush
// encodes and evicts a resident range, and scans view or gather a cold
// block exactly as they do resident rows, with no conversion between.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"skyquery/internal/htm"
	"skyquery/internal/stats"
	"skyquery/internal/value"
)

// coldBlocksHydrated counts cold block reads (decode from a block file
// into a cached column slab). Test instrumentation, like CandRowsGathered.
var coldBlocksHydrated atomic.Int64

// ColdBlocksHydrated returns the cumulative number of cold column blocks
// hydrated from disk (test instrumentation — callers assert deltas).
func ColdBlocksHydrated() int64 { return coldBlocksHydrated.Load() }

// StoreOptions tunes a Store. The zero value gets sensible defaults.
type StoreOptions struct {
	// HotBlocks is the number of most-recent sealed blocks kept resident
	// in Table memory per table (default 16, i.e. 16384 rows). The
	// unsealed tail is always resident on top of this.
	HotBlocks int
	// CacheBlocks bounds the per-table cache of hydrated cold column
	// blocks (default 64 column-blocks).
	CacheBlocks int
	// FlushBlocks is how many newly filled blocks accumulate before an
	// append triggers a flush (default 1: seal each block as it fills).
	FlushBlocks int
	// Fsync syncs the WAL on every append. Off, durability of the tail is
	// delegated to the OS page cache (sealed blocks always fsync); tests
	// that SIGKILL the process keep their acknowledged appends either way
	// because the page cache survives process death.
	Fsync bool
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.HotBlocks <= 0 {
		o.HotBlocks = 16
	}
	if o.CacheBlocks <= 0 {
		o.CacheBlocks = 64
	}
	if o.FlushBlocks <= 0 {
		o.FlushBlocks = 1
	}
	return o
}

// RecoveryInfo reports what opening one table recovered.
type RecoveryInfo struct {
	Table        string
	DurableRows  int   // rows recovered from sealed blocks
	ReplayedRows int   // rows replayed from the WAL tail
	Torn         bool  // the WAL ended in a torn record (crash mid-append)
	TornBytes    int64 // bytes truncated from the torn tail
}

// Store is a directory of disk-backed tables behind a DB.
type Store struct {
	dir  string
	opts StoreOptions
	db   *DB

	mu     sync.Mutex
	tables map[string]*tableStore
	recov  []RecoveryInfo
}

// tableStore is the persistence state of one disk-backed Table. All
// fields except the hydration cache are guarded by the table's write
// lock (mutations happen inside Append/Flush which hold it; readers hold
// the read lock).
type tableStore struct {
	table *Table
	dir   string
	opts  StoreOptions

	colFiles []*os.File
	htmFile  *os.File
	wal      *walWriter

	durable   int           // rows sealed into block files (block-aligned)
	blocks    [][]blockMeta // [column][block]
	colSize   []int64       // end of committed data per column file
	htmRanges []htmRange
	colStats  []*stats.Col // per column, covering exactly the durable rows

	cacheMu sync.Mutex
	cache   blockLRU // (column<<32|block) -> decoded block, LRU order
}

// OpenStore opens (creating if needed) a store directory, recovering
// every table found in it: sealed blocks are trusted via the footer, the
// WAL tail is replayed, torn tails are truncated. The recovered tables
// are registered in the store's DB.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, db: NewDB(), tables: map[string]*tableStore{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		fpath := filepath.Join(dir, e.Name(), footerName)
		if _, err := os.Stat(fpath); err != nil {
			continue // not a table directory
		}
		ts, info, err := openTableStore(filepath.Join(dir, e.Name()), opts)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("storage: open table %q: %w", e.Name(), err)
		}
		if err := s.db.addTable(ts.table); err != nil {
			s.Close()
			return nil, err
		}
		s.tables[ts.table.name] = ts
		s.recov = append(s.recov, info)
	}
	return s, nil
}

// DB returns the database holding the store's tables (plus any plain
// tables callers create in it).
func (s *Store) DB() *DB { return s.db }

// Recovery reports what opening the store recovered, one entry per table.
func (s *Store) Recovery() []RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RecoveryInfo(nil), s.recov...)
}

// validTableName restricts table names to safe directory components.
func validTableName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, "#") {
		return fmt.Errorf("storage: invalid persistent table name %q", name)
	}
	return nil
}

// Create creates a new disk-backed table in the store (and its DB). When
// spatial is non-nil the HTM index is enabled up front so sealed blocks
// carry their ID ranges from the first flush on.
func (s *Store) Create(name string, schema Schema, spatial *SpatialConfig) (*Table, error) {
	if err := validTableName(name); err != nil {
		return nil, err
	}
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	if spatial != nil {
		if err := t.EnableSpatial(*spatial); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(s.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ts := &tableStore{
		table: t, dir: dir, opts: s.opts,
		blocks:   make([][]blockMeta, len(schema)),
		colSize:  make([]int64, len(schema)),
		colStats: t.newStats(),
	}
	for ci := range schema {
		f, err := os.OpenFile(ts.colPath(ci), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			ts.closeFiles()
			return nil, err
		}
		ts.colFiles = append(ts.colFiles, f)
	}
	if spatial != nil {
		ts.htmRanges = []htmRange{}
		f, err := os.OpenFile(ts.htmPath(), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			ts.closeFiles()
			return nil, err
		}
		ts.htmFile = f
	}
	if err := writeFooterFile(filepath.Join(dir, footerName), ts.footer()); err != nil {
		ts.closeFiles()
		return nil, err
	}
	ts.wal, err = createWAL(filepath.Join(dir, "wal.log"), 0, nil, s.opts.Fsync)
	if err != nil {
		ts.closeFiles()
		return nil, err
	}
	t.persist = ts
	if err := s.db.addTable(t); err != nil {
		ts.closeFiles()
		return nil, err
	}
	s.mu.Lock()
	s.tables[name] = ts
	s.mu.Unlock()
	return t, nil
}

// Flush seals every table's full blocks into its block files and commits
// the footers; the unsealed tail stays in the WAL. Safe to call while
// readers run (it takes each table's write lock).
func (s *Store) Flush() error {
	s.mu.Lock()
	tss := make([]*tableStore, 0, len(s.tables))
	for _, ts := range s.tables {
		tss = append(tss, ts)
	}
	s.mu.Unlock()
	for _, ts := range tss {
		ts.table.mu.Lock()
		err := ts.flushLocked()
		ts.table.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes all files. The store must not be used after.
func (s *Store) Close() error {
	err := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ts := range s.tables {
		ts.closeFiles()
	}
	return err
}

func (ts *tableStore) colPath(ci int) string {
	return filepath.Join(ts.dir, fmt.Sprintf("col_%d.blk", ci))
}

func (ts *tableStore) htmPath() string { return filepath.Join(ts.dir, "htm.bin") }

func (ts *tableStore) closeFiles() {
	for _, f := range ts.colFiles {
		if f != nil {
			f.Close()
		}
	}
	if ts.htmFile != nil {
		ts.htmFile.Close()
	}
	if ts.wal != nil {
		ts.wal.close()
	}
}

// footer snapshots the current committed state.
func (ts *tableStore) footer() *tableFooter {
	t := ts.table
	f := &tableFooter{
		name: t.name, schema: t.schema, durable: ts.durable,
		blocks: ts.blocks, htmRanges: ts.htmRanges, colStats: ts.colStats,
	}
	if t.spatial != nil {
		cfg := t.spatial.cfg
		f.spatial = &cfg
	}
	return f
}

// openTableStore recovers one table directory.
func openTableStore(dir string, opts StoreOptions) (*tableStore, RecoveryInfo, error) {
	ftr, err := readFooterFile(filepath.Join(dir, footerName))
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	t, err := NewTable(ftr.name, ftr.schema)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	ts := &tableStore{
		table: t, dir: dir, opts: opts,
		durable: ftr.durable, blocks: ftr.blocks, htmRanges: ftr.htmRanges,
		colSize:  make([]int64, len(ftr.schema)),
		colStats: ftr.colStats,
	}
	if ts.colStats == nil && ftr.durable == 0 {
		// A pre-stats (v1) footer with nothing sealed loses no history:
		// start maintaining statistics from the first flush.
		ts.colStats = t.newStats()
	}
	ok := false
	defer func() {
		if !ok {
			ts.closeFiles()
		}
	}()
	for ci := range ftr.schema {
		f, err := os.OpenFile(ts.colPath(ci), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		ts.colFiles = append(ts.colFiles, f)
		if bs := ftr.blocks[ci]; len(bs) > 0 {
			last := bs[len(bs)-1]
			ts.colSize[ci] = last.off + int64(last.size)
		}
	}
	if ftr.spatial != nil {
		f, err := os.OpenFile(ts.htmPath(), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		ts.htmFile = f
	}

	// Load the hot suffix of sealed blocks into Table memory.
	memBase := ftr.durable - opts.HotBlocks*ZoneBlockRows
	if memBase < 0 {
		memBase = 0
	}
	memBase = memBase / ZoneBlockRows * ZoneBlockRows
	for b := memBase / ZoneBlockRows; b < ftr.durable/ZoneBlockRows; b++ {
		for ci := range t.cols {
			col, err := ts.readBlock(ci, b)
			if err != nil {
				return nil, RecoveryInfo{}, err
			}
			if err := t.cols[ci].appendFrom(col); err != nil {
				return nil, RecoveryInfo{}, err
			}
		}
	}
	t.rows = ftr.durable
	t.memBase = memBase
	t.persist = ts

	// Replay the WAL tail onto memory; truncate anything torn.
	info := RecoveryInfo{Table: ftr.name, DurableRows: ftr.durable}
	walPath := filepath.Join(dir, "wal.log")
	ws, err := readWAL(walPath, ftr.durable)
	if err != nil {
		return nil, info, err
	}
	if ws.base > ftr.durable {
		return nil, info, fmt.Errorf("storage: WAL base row %d ahead of durable %d", ws.base, ftr.durable)
	}
	skip := ftr.durable - ws.base
	replay := ws.rows
	if skip >= len(replay) {
		replay = nil
	} else {
		replay = replay[skip:]
	}
	for _, vals := range replay {
		if len(vals) != len(t.cols) || t.appendRowLocked(vals) != nil {
			// A CRC-valid record with the wrong shape can only come from
			// torn concurrent writes or tampering; treat like a torn tail.
			ws.torn = true
			break
		}
		t.rows++
		info.ReplayedRows++
	}
	info.Torn = ws.torn
	info.TornBytes = ws.size - ws.good

	// Rewrite the log to exactly the recovered tail: drops sealed-row
	// records, torn bytes and any rows past a malformed record in one go.
	tail := make([][]value.Value, 0, info.ReplayedRows)
	for r := ftr.durable; r < t.rows; r++ {
		tail = append(tail, t.rowLocked(r))
	}
	ts.wal, err = createWAL(walPath, ftr.durable, tail, opts.Fsync)
	if err != nil {
		return nil, info, err
	}

	// Rebuild the spatial index: sealed rows from htm.bin, the replayed
	// tail recomputed from its in-memory positions.
	if ftr.spatial != nil {
		ids, err := ts.readHTMIDs(ftr.durable)
		if err != nil {
			return nil, info, err
		}
		if err := t.enableSpatialSeeded(*ftr.spatial, ids); err != nil {
			return nil, info, err
		}
	}
	ok = true
	return ts, info, nil
}

// readBlock reads and decodes sealed block b of column ci (no cache).
func (ts *tableStore) readBlock(ci, b int) (column, error) {
	m := ts.blocks[ci][b]
	buf := make([]byte, m.size)
	if _, err := ts.colFiles[ci].ReadAt(buf, m.off); err != nil {
		return nil, fmt.Errorf("storage: read block %d of column %d: %w", b, ci, err)
	}
	if crc32.ChecksumIEEE(buf) != m.crc {
		return nil, fmt.Errorf("storage: block %d of column %d: checksum mismatch", b, ci)
	}
	col, n, err := decodeBlock(buf)
	if err != nil {
		return nil, err
	}
	if n != ZoneBlockRows {
		return nil, fmt.Errorf("storage: block %d of column %d: %d rows, want %d", b, ci, n, ZoneBlockRows)
	}
	return col, nil
}

// readHTMIDs reads the first n sealed per-row HTM IDs. Missing entries
// (an impossible state unless the file was tampered with, since IDs sync
// before the footer commits) are recomputed from row positions.
func (ts *tableStore) readHTMIDs(n int) ([]htm.ID, error) {
	buf := make([]byte, 8*n)
	ids := make([]htm.ID, 0, n)
	got, err := ts.htmFile.ReadAt(buf, 0)
	if err != nil && got < len(buf) {
		// Partial file: keep what decoded, recompute the rest below.
		buf = buf[:got/8*8]
	}
	for i := 0; i+8 <= len(buf); i += 8 {
		ids = append(ids, htm.ID(binary.LittleEndian.Uint64(buf[i:])))
	}
	return ids, nil
}

// flushLocked seals full blocks, commits the footer, rewrites the WAL to
// the remaining tail and evicts sealed blocks beyond the hot budget. The
// caller holds the table's write lock. On error nothing is committed:
// the footer still describes the previous state and orphan block bytes
// are overwritten by the next attempt.
func (ts *tableStore) flushLocked() error {
	t := ts.table
	target := t.rows / ZoneBlockRows * ZoneBlockRows
	if target <= ts.durable {
		return nil
	}
	firstB := ts.durable / ZoneBlockRows
	lastB := target / ZoneBlockRows
	newMetas := make([][]blockMeta, len(t.cols))
	ends := append([]int64(nil), ts.colSize...)
	var buf []byte
	for ci, col := range t.cols {
		for b := firstB; b < lastB; b++ {
			lo := b*ZoneBlockRows - t.memBase
			hi := lo + ZoneBlockRows
			buf = col.encode(buf[:0], lo, hi)
			m := blockMeta{
				off: ends[ci], size: uint32(len(buf)), crc: crc32.ChecksumIEEE(buf),
				zoneStats: col.zone(lo, hi),
			}
			if len(m.sz.min) > math.MaxUint16 || len(m.sz.max) > math.MaxUint16 {
				// Bounds past the footer's u16 string frame: this block
				// carries no zone and just never prunes.
				m.sz, m.isStr = strZone{}, false
			}
			if _, err := ts.colFiles[ci].WriteAt(buf, m.off); err != nil {
				return fmt.Errorf("storage: flush column %d: %w", ci, err)
			}
			ends[ci] += int64(len(buf))
			newMetas[ci] = append(newMetas[ci], m)
		}
		if err := ts.colFiles[ci].Sync(); err != nil {
			return err
		}
	}
	var newRanges []htmRange
	if t.spatial != nil {
		n := target - ts.durable
		idBuf := make([]byte, 0, 8*n)
		for b := firstB; b < lastB; b++ {
			r := htmRange{}
			for i := 0; i < ZoneBlockRows; i++ {
				row := b*ZoneBlockRows + i
				id := htm.Lookup(t.positionLocked(row), t.spatial.cfg.Level)
				if i == 0 || id < r.lo {
					r.lo = id
				}
				if i == 0 || id > r.hi {
					r.hi = id
				}
				idBuf = binary.LittleEndian.AppendUint64(idBuf, uint64(id))
			}
			newRanges = append(newRanges, r)
		}
		if _, err := ts.htmFile.WriteAt(idBuf, int64(ts.durable)*8); err != nil {
			return fmt.Errorf("storage: flush htm ids: %w", err)
		}
		if err := ts.htmFile.Sync(); err != nil {
			return err
		}
	}

	// Fold the sealed rows into the maintained statistics, working on
	// clones so an error below leaves the committed state untouched. A
	// store recovered from a pre-stats (v1) footer with durable rows has
	// nil colStats and stays that way: the sealed history is unknown, and
	// partial statistics would claim coverage they don't have. Readers
	// fall back to count-star planning.
	var newStats []*stats.Col
	if ts.colStats != nil {
		newStats = make([]*stats.Col, len(t.cols))
		for ci, col := range t.cols {
			cs := ts.colStats[ci].Clone()
			col.foldStats(cs, ts.durable, target, t.memBase)
			newStats[ci] = cs
		}
	}

	// Commit point: the footer rename.
	commit := &tableFooter{
		name: t.name, schema: t.schema, durable: target,
		blocks:    make([][]blockMeta, len(t.cols)),
		htmRanges: ts.htmRanges,
		colStats:  newStats,
	}
	for ci := range t.cols {
		commit.blocks[ci] = append(append([]blockMeta(nil), ts.blocks[ci]...), newMetas[ci]...)
	}
	if t.spatial != nil {
		cfg := t.spatial.cfg
		commit.spatial = &cfg
		commit.htmRanges = append(append([]htmRange(nil), ts.htmRanges...), newRanges...)
	}
	if err := writeFooterFile(filepath.Join(ts.dir, footerName), commit); err != nil {
		return err
	}
	ts.blocks = commit.blocks
	ts.htmRanges = commit.htmRanges
	ts.colSize = ends
	ts.durable = target
	ts.colStats = newStats

	// Shed the sealed rows from the log; a crash before this keeps them
	// as already-durable records that replay skips via baseRow.
	tail := make([][]value.Value, 0, t.rows-target)
	for r := target; r < t.rows; r++ {
		tail = append(tail, t.rowLocked(r))
	}
	oldWAL := ts.wal
	nw, err := createWAL(oldWAL.path, target, tail, ts.opts.Fsync)
	if err != nil {
		return err
	}
	oldWAL.close()
	ts.wal = nw

	// Evict sealed blocks beyond the hot budget.
	newBase := t.rows - ts.opts.HotBlocks*ZoneBlockRows
	if newBase > ts.durable {
		newBase = ts.durable
	}
	newBase = newBase / ZoneBlockRows * ZoneBlockRows
	if newBase > t.memBase {
		k := newBase - t.memBase
		for _, col := range t.cols {
			col.dropPrefix(k)
		}
		t.memBase = newBase
	}
	return nil
}

// newStats returns fresh, empty statistics for every column.
func (t *Table) newStats() []*stats.Col {
	out := make([]*stats.Col, len(t.cols))
	for ci, col := range t.cols {
		out[ci] = stats.NewCol(col.statsKind())
	}
	return out
}

// block returns sealed block b of column ci, hydrating through the LRU
// cache. Callers hold the table's read lock (the block index only grows,
// under the write lock).
func (ts *tableStore) block(ci, b int) (column, error) {
	key := uint64(ci)<<32 | uint64(b)
	ts.cacheMu.Lock()
	if col, hit := ts.cache.get(key); hit {
		ts.cacheMu.Unlock()
		blockCacheHits.Add(1)
		return col, nil
	}
	ts.cacheMu.Unlock()
	blockCacheMisses.Add(1)
	col, err := ts.readBlock(ci, b)
	if err != nil {
		return nil, err
	}
	coldBlocksHydrated.Add(1)
	ts.cacheMu.Lock()
	if prev, hit := ts.cache.get(key); hit {
		col = prev // another reader won the race
	} else {
		ts.cache.add(key, col, ts.opts.CacheBlocks)
	}
	ts.cacheMu.Unlock()
	return col, nil
}

// mustBlock is block for the typed read paths, which have no error
// channel: a cold read that fails after open-time verification means the
// store's files were corrupted or truncated underneath a live process,
// and continuing would silently return wrong query results.
func (ts *tableStore) mustBlock(ci, b int) column {
	col, err := ts.block(ci, b)
	if err != nil {
		panic(fmt.Sprintf("storage: cold read of table %q failed: %v", ts.table.name, err))
	}
	return col
}

// coldCell returns one boxed cell from the cold tier.
func (ts *tableStore) coldCell(ci, row int) value.Value {
	return ts.mustBlock(ci, row/ZoneBlockRows).get(row % ZoneBlockRows)
}
