package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"skyquery/internal/eval"
	"skyquery/internal/sphere"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// Result is the output of a query: a schema plus rows. It is the native
// currency between the executor and the web-service layer.
type Result struct {
	Columns Schema
	Rows    [][]value.Value
}

// rowEnv resolves column references against a table row. It accepts the
// table's alias, its real name, or no qualifier at all, so both portal
// queries ("O.type") and node-local queries ("type") evaluate. It is the
// interpreted reference path: the executor itself runs compiled programs
// over tableLayout, and tests cross-validate the two.
type rowEnv struct {
	t     *Table
	alias string
	row   int
}

// Lookup implements eval.Env.
func (e rowEnv) Lookup(table, column string) (value.Value, error) {
	if table != "" && table != e.alias && table != e.t.name {
		return value.Null, fmt.Errorf("storage: unknown table %q in query against %q", table, e.t.name)
	}
	ci := e.t.schema.Index(column)
	if ci < 0 {
		return value.Null, fmt.Errorf("storage: unknown column %q in table %q", column, e.t.name)
	}
	return e.t.cellLocked(e.row, ci), nil
}

// Env returns an eval.Env bound to one row of the table, resolving
// references qualified by alias, the table name, or nothing.
func (t *Table) Env(alias string, row int) eval.Env {
	return rowEnv{t: t, alias: alias, row: row}
}

// tableLayout resolves column references to schema slots with the same
// qualifier rules (and error messages) as rowEnv. Programs compiled
// against it evaluate over rows laid out in schema order.
type tableLayout struct {
	t     *Table
	alias string
}

// Slot implements eval.Layout.
func (l tableLayout) Slot(table, column string) (int, error) {
	if table != "" && table != l.alias && table != l.t.name {
		return 0, fmt.Errorf("storage: unknown table %q in query against %q", table, l.t.name)
	}
	ci := l.t.schema.Index(column)
	if ci < 0 {
		return 0, fmt.Errorf("storage: unknown column %q in table %q", column, l.t.name)
	}
	return ci, nil
}

// Layout returns the compile-time column resolver for this table: slots
// are schema positions, and references may be qualified by alias, the
// table name, or nothing. The chain executor compiles its per-step
// predicates against it.
func (t *Table) Layout(alias string) eval.Layout {
	return tableLayout{t: t, alias: alias}
}

// Execute runs a single-table query against the database. The query's FROM
// clause must name exactly one table that exists here (the archive
// qualifier, if any, is ignored: by the time a query reaches a SkyNode it
// is local). The AREA clause, if present, restricts rows via the HTM index.
//
// Supported shapes are exactly what the federation needs from a component
// database: SELECT COUNT(*) (performance queries), and projections with
// expressions, aliases, *, and TOP.
func (db *DB) Execute(q *sqlparse.Query) (*Result, error) {
	if len(q.From) != 1 {
		return nil, fmt.Errorf("storage: node queries must reference exactly one table, got %d", len(q.From))
	}
	if q.XMatch != nil {
		return nil, fmt.Errorf("storage: XMATCH cannot be evaluated by a single node; it is a federated clause")
	}
	ref := q.From[0]
	t, ok := db.Table(ref.Table)
	if !ok {
		return nil, fmt.Errorf("storage: table %q does not exist", ref.Table)
	}
	var region sphere.Region
	if q.Area != nil {
		if q.Area.IsPolygon() {
			poly, err := sphere.NewPolygon(q.Area.Vertices...)
			if err != nil {
				return nil, fmt.Errorf("storage: AREA polygon: %w", err)
			}
			region = poly
		} else {
			region = sphere.NewCap(q.Area.RA, q.Area.Dec, sphere.Arcsec(q.Area.RadiusArcsec))
		}
	}
	return t.Select(ref.Name(), q, region)
}

// predRowsEvaluated counts rows whose predicate columns were gathered (or
// viewed) into a scan batch. It is test instrumentation for the
// empty-selection bailout and for zone-map pruning: a region whose HTM
// cover yields no candidates, or a block every pruner proves dead, must
// cost zero predicate work (no column fills, no program evaluation).
var predRowsEvaluated atomic.Int64

// zoneBlocksPruned counts scan blocks skipped by the zone maps.
var zoneBlocksPruned atomic.Int64

// PredRowsEvaluated returns the cumulative number of rows whose predicate
// columns were materialized into scan batches (test instrumentation —
// callers assert deltas around a query).
func PredRowsEvaluated() int64 { return predRowsEvaluated.Load() }

// ZoneBlocksPruned returns the cumulative number of base-table scan
// blocks skipped via zone maps (test instrumentation).
func ZoneBlocksPruned() int64 { return zoneBlocksPruned.Load() }

// selScratch is the pooled per-Select scan scratch: the typed batch and
// the candidate-row buffer. Entries are keyed informally by (width,
// capacity): a mismatched entry is released and rebuilt, so steady-state
// query streams against the same tables reuse the same slabs.
type selScratch struct {
	width, cap int
	batch      *eval.TBatch
	rowIdx     []int
}

var selectPool sync.Pool

func getSelScratch(width, capacity int) *selScratch {
	if v := selectPool.Get(); v != nil {
		sc := v.(*selScratch)
		if sc.cap == capacity && sc.width >= width {
			sc.rowIdx = sc.rowIdx[:0]
			sc.batch.ResetFilled()
			return sc
		}
		sc.batch.Release()
	}
	return &selScratch{
		width:  width,
		cap:    capacity,
		batch:  eval.NewTBatch(width, capacity),
		rowIdx: make([]int, 0, capacity),
	}
}

func putSelScratch(sc *selScratch) {
	sc.batch.ResetFilled()
	selectPool.Put(sc)
}

// Select evaluates the query against this table, with an optional region
// constraint (which may also come from q.Area via DB.Execute). alias is
// the name column references may use.
//
// All expressions — WHERE, projections, ORDER BY keys — are compiled once
// against the table layout before the scan starts, so binding errors
// (unknown columns or tables, unknown functions, wrong arities) surface
// up front, independent of the data. The scan runs the typed batch engine
// (eval.CompileTyped) over native column vectors:
//
//   - A base-table scan (no region) walks the table in blocks of
//     ZoneBlockRows rows. Zone maps prune blocks no comparison conjunct
//     can match (see zonemap.go), and surviving blocks are fed to the
//     kernels as zero-copy views straight into the columnar backends — no
//     gather, no boxing.
//   - A region scan collects candidate rows (HTM search order) and
//     gathers only the referenced columns into pooled typed scratch, the
//     WHERE columns for every candidate and the projection/sort columns
//     only at positions that passed.
//
// The result is row-for-row identical to the row-at-a-time scan,
// including TOP semantics: when TOP is satisfied partway through a batch,
// rows past the boundary are discarded unprojected, and a predicate error
// beyond the point where the row-at-a-time scan would have stopped is
// suppressed exactly as that scan (which never reached the failing row)
// would have. Zone-map pruning preserves the same contract (the
// error-exactness conditions live in eval.AnalyzePrune).
func (t *Table) Select(alias string, q *sqlparse.Query, region sphere.Region) (*Result, error) {
	layout := t.Layout(alias)

	res := &Result{}
	var projections []sqlparse.Expr
	if q.Count {
		res.Columns = Schema{{Name: "count", Type: value.IntType}}
	} else {
		for _, item := range q.Select {
			if _, ok := item.Expr.(*sqlparse.Star); ok {
				for _, def := range t.schema {
					res.Columns = append(res.Columns, def)
					projections = append(projections, &sqlparse.ColumnRef{Table: alias, Column: def.Name})
				}
				continue
			}
			name := item.Alias
			if name == "" {
				if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
					name = cr.Column
				} else {
					name = item.Expr.String()
				}
			}
			res.Columns = append(res.Columns, ColumnDef{Name: name, Type: exprType(t, item.Expr)})
			projections = append(projections, item.Expr)
		}
	}

	whereProg, err := eval.CompileTyped(q.Where, layout)
	if err != nil {
		return nil, err
	}
	projProgs := make([]*eval.TypedProgram, len(projections))
	for i, p := range projections {
		if projProgs[i], err = eval.CompileTyped(p, layout); err != nil {
			return nil, err
		}
	}
	orderProgs := make([]*eval.TypedProgram, len(q.OrderBy))
	for i, o := range q.OrderBy {
		if orderProgs[i], err = eval.CompileTyped(o.Expr, layout); err != nil {
			return nil, err
		}
	}

	// One typed batch in schema order, refilled per chunk at only the
	// columns some program reads — predicate columns for every candidate,
	// the remaining projection/sort columns only after the filter.
	bs := eval.BatchSize()
	sc := getSelScratch(len(t.schema), bs)
	defer putSelScratch(sc)
	batch := sc.batch
	var evs []*eval.TypedEval
	defer func() {
		for _, ev := range evs {
			ev.Release()
		}
	}()
	newEval := func(p *eval.TypedProgram) *eval.TypedEval {
		ev := p.NewEval(bs)
		evs = append(evs, ev)
		return ev
	}
	whereEv := newEval(whereProg)
	projEvs := make([]*eval.TypedEval, len(projProgs))
	projOut := make([]*eval.Vector, len(projProgs))
	for i, p := range projProgs {
		projEvs[i] = newEval(p)
	}
	orderEvs := make([]*eval.TypedEval, len(orderProgs))
	orderOut := make([]*eval.Vector, len(orderProgs))
	for i, p := range orderProgs {
		orderEvs[i] = newEval(p)
	}
	whereRefs := whereProg.Refs()
	var postLists [][]int
	for _, p := range projProgs {
		postLists = append(postLists, p.Refs())
	}
	for _, p := range orderProgs {
		postLists = append(postLists, p.Refs())
	}
	postRefs := subtractRefs(eval.UnionRefs(postLists...), whereRefs)

	count := int64(0)
	hasOrder := len(q.OrderBy) > 0
	// With ORDER BY the scan cannot stop at TOP rows: all matches are
	// collected with their sort keys, sorted, then truncated.
	var sortKeys [][]value.Value
	done := false

	// evalBatch filters the filled batch of n rows and materializes the
	// surviving rows; fillPost supplies the post-predicate columns for the
	// passing selection (gather or view, per scan mode).
	evalBatch := func(n int, fillPost func(sel []int)) error {
		predRowsEvaluated.Add(int64(n))
		batch.SetLen(n)
		sel, _, err := whereProg.Filter(whereEv, batch, whereEv.Seq(n))
		// TOP without ORDER BY stops the scan once enough rows pass. When
		// that point lies before a failing row, the row-at-a-time scan
		// never evaluated the failing row — suppress the error just as it
		// would have; otherwise the error stands.
		need := -1
		if !q.Count && !hasOrder && q.Top > 0 {
			need = q.Top - len(res.Rows)
		}
		if err != nil && (need < 0 || len(sel) < need) {
			return err
		}
		if need >= 0 && len(sel) >= need {
			sel = sel[:need]
			done = true
		}
		if q.Count {
			count += int64(len(sel))
			return nil
		}
		if len(sel) == 0 {
			return nil
		}
		fillPost(sel)
		for i, p := range projProgs {
			vec, _, err := p.EvalVec(projEvs[i], batch, sel)
			if err != nil {
				return err
			}
			projOut[i] = vec
		}
		for i, p := range orderProgs {
			vec, _, err := p.EvalVec(orderEvs[i], batch, sel)
			if err != nil {
				return err
			}
			orderOut[i] = vec
		}
		for _, r := range sel {
			vals := make([]value.Value, len(projProgs))
			for i := range projProgs {
				vals[i] = projOut[i].ValueAt(r)
			}
			res.Rows = append(res.Rows, vals)
			if hasOrder {
				keys := make([]value.Value, len(orderProgs))
				for i := range orderProgs {
					keys[i] = orderOut[i].ValueAt(r)
				}
				sortKeys = append(sortKeys, keys)
			}
		}
		return nil
	}

	// The prunable WHERE conjuncts serve both scan modes: the contiguous
	// scan skips whole blocks, and the region scan drops HTM candidates
	// from dead blocks below the search (CandPruner).
	var ps eval.PruneSet
	if q.Where != nil {
		ps = eval.AnalyzePrune(q.Where, layout, func(s int) value.Type { return t.schema[s].Type })
	}

	// flushGather is the region-scan path: typed gather of the predicate
	// columns for a batch of candidate rows. An AREA whose HTM cover
	// yields no candidates never reaches it (the batch search only emits
	// non-empty batches), so an empty selection costs zero predicate work.
	var evalErr error
	flushGather := func(rows []int, _ []sphere.Vec) bool {
		for _, s := range whereRefs {
			t.GatherColumn(batch.Col(s), s, rows)
		}
		evalErr = evalBatch(len(rows), func(sel []int) {
			for _, s := range postRefs {
				t.GatherColumnSel(batch.Col(s), s, rows, sel)
			}
		})
		return evalErr == nil && !done
	}

	// scanContig is the base-table path: walk the table block-aligned,
	// skip blocks the zone maps prove dead, and feed surviving ranges to
	// the kernels as zero-copy column views.
	scanContig := func() error {
		n := t.RowCount()
		var zones *zoneSet
		if len(ps.Pruners) > 0 {
			zones = t.zoneMaps(n)
		}
		// Each surviving block is one read-lock window: the zero-copy views
		// must be consumed before the lock drops, because on a disk-backed
		// table a concurrent flush may evict the viewed memory under the
		// write lock. Between blocks the lock is released so appends can
		// interleave with long scans.
		scanBlock := func(blkLo, blkHi int) error {
			t.mu.RLock()
			defer t.mu.RUnlock()
			for lo := blkLo; lo < blkHi && !done; lo += bs {
				hi := lo + bs
				if hi > blkHi {
					hi = blkHi
				}
				for _, s := range whereRefs {
					t.ColumnView(batch.Col(s), s, lo, hi)
				}
				err := evalBatch(hi-lo, func([]int) {
					for _, s := range postRefs {
						t.ColumnView(batch.Col(s), s, lo, hi)
					}
				})
				if err != nil {
					return err
				}
			}
			return nil
		}
		for blkLo := 0; blkLo < n && !done; blkLo += ZoneBlockRows {
			blkHi := blkLo + ZoneBlockRows
			if blkHi > n {
				blkHi = n
			}
			if zones != nil && zones.prunable(blkLo/ZoneBlockRows, ps) {
				zoneBlocksPruned.Add(1)
				continue
			}
			if err := scanBlock(blkLo, blkHi); err != nil {
				return err
			}
		}
		return nil
	}

	if region != nil {
		if t.HasSpatial() {
			// The batch search prunes candidates from dead zone blocks
			// below the HTM walk, so they never reach flushGather.
			sb := &SearchBatch{Rows: sc.rowIdx, Prune: t.CandPruner(ps)}
			if err := t.SearchRegionBatch(region, sb, flushGather); err != nil {
				return nil, err
			}
			sc.rowIdx = sb.Rows[:0]
		} else {
			// No index: fall back to a full scan with an explicit position
			// test (no candidate pruning — the path exists for tables
			// without an HTM index and stays row-at-a-time). The whole scan
			// is a single read section: the position tests and the gathers
			// must observe one consistent snapshot.
			ra := t.schema.Index("ra")
			de := t.schema.Index("dec")
			if ra < 0 || de < 0 {
				return nil, fmt.Errorf("storage: table %q has no spatial index and no ra/dec columns for AREA", t.name)
			}
			t.BeginRead()
			for row := 0; row < t.rows; row++ {
				raf, _ := t.cellLocked(row, ra).AsFloat()
				def, _ := t.cellLocked(row, de).AsFloat()
				if !region.Contains(sphere.FromRaDec(raf, def)) {
					continue
				}
				sc.rowIdx = append(sc.rowIdx, row)
				if len(sc.rowIdx) == bs {
					ok := flushGather(sc.rowIdx, nil)
					sc.rowIdx = sc.rowIdx[:0]
					if !ok {
						break
					}
				}
			}
			if evalErr == nil && !done && len(sc.rowIdx) > 0 {
				flushGather(sc.rowIdx, nil) // the final partial batch
				sc.rowIdx = sc.rowIdx[:0]
			}
			t.EndRead()
		}
	} else {
		evalErr = scanContig()
	}
	if evalErr != nil {
		return nil, evalErr
	}
	if q.Count {
		res.Rows = append(res.Rows, []value.Value{value.Int(count)})
	}
	if len(q.OrderBy) > 0 {
		sorted, err := eval.SortRows(res.Rows, sortKeys, q.OrderBy)
		if err != nil {
			return nil, err
		}
		res.Rows = sorted
		if q.Top > 0 && len(res.Rows) > q.Top {
			res.Rows = res.Rows[:q.Top]
		}
	}
	return res, nil
}

// subtractRefs returns the slots of a not present in b (both sorted).
func subtractRefs(a, b []int) []int {
	skip := map[int]bool{}
	for _, s := range b {
		skip[s] = true
	}
	var out []int
	for _, s := range a {
		if !skip[s] {
			out = append(out, s)
		}
	}
	return out
}

// exprType infers a static result type for a projection, defaulting to
// FLOAT for computed numerics. It is advisory: the dataset layer carries
// per-cell types anyway.
func exprType(t *Table, e sqlparse.Expr) value.Type {
	switch n := e.(type) {
	case *sqlparse.ColumnRef:
		if ci := t.schema.Index(n.Column); ci >= 0 {
			return t.schema[ci].Type
		}
	case *sqlparse.NumberLit:
		return value.FloatType
	case *sqlparse.StringLit:
		return value.StringType
	case *sqlparse.BoolLit:
		return value.BoolType
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return value.BoolType
		}
		return value.FloatType
	case *sqlparse.UnaryExpr:
		if n.Op == "NOT" {
			return value.BoolType
		}
		return value.FloatType
	case *sqlparse.IsNull, *sqlparse.InList, *sqlparse.Between:
		return value.BoolType
	case *sqlparse.FuncCall:
		return eval.FuncResultType(n, func(arg sqlparse.Expr) value.Type { return exprType(t, arg) })
	}
	return value.FloatType
}
