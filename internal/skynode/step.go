package skynode

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"skyquery/internal/dataset"
	"skyquery/internal/eval"
	"skyquery/internal/plan"
	"skyquery/internal/sphere"
	"skyquery/internal/sqlparse"
	"skyquery/internal/storage"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// The wire form of partial tuples (accumulator columns followed by
// carried "alias.column" payload columns) is defined in internal/xmatch;
// this file consumes it via xmatch.AccColumns, AccToCells and CellsToAcc.

// candPruneEnabled gates the pre-gather candidate pruning below the HTM
// search. On by default; benchmarks flip it off to measure the unpruned
// (PR 4) path against the pruned one.
var candPruneEnabled atomic.Bool

func init() { candPruneEnabled.Store(true) }

// SetCandPrune toggles candidate zone pruning in the chain steps and
// returns the previous setting. It exists for benchmarks and tests;
// results are identical either way (pruning is exact), only the work
// performed differs.
func SetCandPrune(on bool) bool { return candPruneEnabled.Swap(on) }

// scratchList is the chain steps' free-list of per-worker batch scratch.
// Unlike a per-call sync.Pool it tracks every scratch it created, so the
// step can Release them when it finishes — their typed-vector payloads
// and evaluator slabs then return to eval's shared pools and the next
// federated query reuses them instead of re-allocating.
type scratchList[T any] struct {
	mu   sync.Mutex
	news func() T
	free []T
	all  []T
}

func newScratchList[T any](news func() T) *scratchList[T] {
	return &scratchList[T]{news: news}
}

func (l *scratchList[T]) get() T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		sc := l.free[n-1]
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return sc
	}
	l.mu.Unlock()
	sc := l.news()
	l.mu.Lock()
	l.all = append(l.all, sc)
	l.mu.Unlock()
	return sc
}

func (l *scratchList[T]) put(sc T) {
	l.mu.Lock()
	l.free = append(l.free, sc)
	l.mu.Unlock()
}

// release runs fn over every scratch ever created (idle or not — callers
// invoke it after the step's workers have finished).
func (l *scratchList[T]) release(fn func(T)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sc := range l.all {
		fn(sc)
	}
	l.all, l.free = nil, nil
}

// stepRunner is one chain step compiled and ready to execute page by
// page: predicates are parsed, compiled, and bound once when the runner
// is built; each run call then processes one page of incoming tuples
// through the same pruned search → typed gather → chi-square gate →
// residual pipeline.
type stepRunner struct {
	// outCols is the step's output tuple schema, known before any row is
	// processed (a streamed reply emits it as the schema frame up front).
	outCols []dataset.Column
	// run extends (or veto-filters) one page of incoming tuples. The
	// seed runner ignores its input and returns the AREA's 1-tuples.
	run func(rows [][]value.Value) ([][]value.Value, error)
	// close releases the runner's pooled scratch. Must be called once.
	close func()
}

// newStepRunner resolves the step's table, area, and predicates and
// compiles the appropriate runner. incomingCols is nil for the seed
// step; otherwise it is the incoming partial-tuple schema.
func (n *Node) newStepRunner(p *plan.Plan, step plan.Step, incomingCols []dataset.Column) (*stepRunner, error) {
	table, ok := n.cfg.DB.Table(step.Table)
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", step.Table)
	}
	if !table.HasSpatial() {
		return nil, fmt.Errorf("table %q has no spatial index", step.Table)
	}
	area, err := p.Area.Region()
	if err != nil {
		return nil, err
	}

	var localWhere sqlparse.Expr
	if step.LocalWhere != "" {
		e, err := sqlparse.ParseExpr(step.LocalWhere)
		if err != nil {
			return nil, fmt.Errorf("bad local predicate %q: %w", step.LocalWhere, err)
		}
		localWhere = e
	}
	var crossWhere []sqlparse.Expr
	for _, src := range step.CrossWhere {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			return nil, fmt.Errorf("bad cross predicate %q: %w", src, err)
		}
		crossWhere = append(crossWhere, e)
	}

	if incomingCols == nil {
		if step.DropOut {
			return nil, fmt.Errorf("drop-out archive cannot seed the chain")
		}
		return n.newSeedRunner(p, table, step, area, localWhere)
	}
	if len(incomingCols) < xmatch.NumAccCols {
		return nil, fmt.Errorf("malformed partial-tuple schema: %d columns, want at least %d", len(incomingCols), xmatch.NumAccCols)
	}
	return n.newCapJoinRunner(p, table, step, area, localWhere, crossWhere, incomingCols)
}

// observeSeedEstimate emits the estimate-vs-actual trace event the
// EXPLAIN tooling reads for a seed step the plan carried an estimate for.
func (n *Node) observeSeedEstimate(step plan.Step, actual int) {
	if step.EstRows > 0 {
		n.emit("xmatch.estimate", "table %s: est=%.0f actual=%d", step.Table, step.EstRows, actual)
	}
}

// newSeedRunner compiles the first (innermost) query of the chain: all
// objects in the area passing the local predicate become 1-tuples. The
// HTM region walk collects candidate rows in index order — with
// candidates from zone blocks the local predicate provably kills dropped
// below the search, before a position is computed or a cell gathered —
// then the survivors are split into batches of eval.BatchSize rows, each
// batch runs the typed local predicate over natively gathered column
// vectors, and the batches are sharded across the worker pool with
// results merged back in scan order — bit-identical to a sequential,
// row-at-a-time pass.
func (n *Node) newSeedRunner(p *plan.Plan, table *storage.Table, step plan.Step, area sphere.Region, localWhere sqlparse.Expr) (*stepRunner, error) {
	localProg, err := eval.CompileTyped(localWhere, table.Layout(step.Alias))
	if err != nil {
		return nil, fmt.Errorf("compiling local predicate %q: %w", step.LocalWhere, err)
	}
	schema := table.Schema()
	schemaLen := len(schema)
	bs := eval.BatchSize()
	refs := localProg.Refs()
	// Workers draw whole batches; the free-list hands each worker its own
	// batch + evaluator scratch and releases everything to the shared
	// slab pools when the step finishes.
	type seedScratch struct {
		batch *eval.TBatch
		ev    *eval.TypedEval
	}
	scratch := newScratchList(func() *seedScratch {
		return &seedScratch{batch: eval.NewTBatch(schemaLen, bs), ev: localProg.NewEval(bs)}
	})
	var pruner *storage.CandPruner
	if candPruneEnabled.Load() {
		// The seed predicate's slots are schema positions already, so the
		// single-expression analysis applies unchanged.
		ps := eval.AnalyzePrune(localWhere, table.Layout(step.Alias),
			func(s int) value.Type { return schema[s].Type })
		pruner = table.CandPruner(ps)
	}
	seed := func([][]value.Value) ([][]value.Value, error) {
		var cand []int
		var candPos []sphere.Vec
		sb := &storage.SearchBatch{Rows: make([]int, 0, bs), Pos: make([]sphere.Vec, 0, bs), Prune: pruner}
		if err := table.SearchRegionBatch(area, sb, func(rows []int, poss []sphere.Vec) bool {
			cand = append(cand, rows...)
			candPos = append(candPos, poss...)
			return true
		}); err != nil {
			return nil, err
		}
		nBatches := (len(cand) + bs - 1) / bs
		return forEachOrdered(nBatches, n.parallelism(p.Parallelism), func(bi int) ([][]value.Value, error) {
			lo := bi * bs
			hi := min(lo+bs, len(cand))
			chunk := cand[lo:hi]
			sc := scratch.get()
			defer scratch.put(sc)
			// The search that produced cand has returned, so its read lock is
			// gone; the gathers and cell reads below need their own section to
			// stay consistent against concurrent appends.
			table.BeginRead()
			defer table.EndRead()
			sc.batch.SetLen(len(chunk))
			for _, ci := range refs {
				table.GatherColumn(sc.batch.Col(ci), ci, chunk)
			}
			sel, _, err := localProg.Filter(sc.ev, sc.batch, sc.ev.Seq(len(chunk)))
			if err != nil {
				return nil, err
			}
			group := make([][]value.Value, 0, len(sel))
			for _, i := range sel {
				acc := xmatch.Accumulator{}.Add(candPos[lo+i], step.SigmaArcsec)
				cells := xmatch.AccToCells(acc)
				cells = append(cells, n.columnCells(table, step, chunk[i])...)
				group = append(group, cells)
			}
			return group, nil
		})
	}
	return &stepRunner{
		outCols: n.tupleColumns(nil, table, step),
		run:     seed,
		close: func() {
			scratch.release(func(sc *seedScratch) { sc.batch.Release(); sc.ev.Release() })
		},
	}, nil
}

// newCapJoinRunner compiles every chain step after the seed: §5.3's
// spatial join, where each incoming tuple searches this archive's primary
// table around its current best position and the candidates pass the
// local predicate and the chi-square gate. A mandatory archive extends
// the tuple with every gate match that also passes the cross predicates;
// a drop-out archive vetoes the tuple on its first gate match — the
// "exclusive outer join" of §5.2 — and passes the rest through with their
// schema unchanged. It reads each incoming page in place: §5.3's stored
// procedure inserts the tuples into a temporary table first, but no
// result depends on that copy, so the step skips it.
func (n *Node) newCapJoinRunner(p *plan.Plan, table *storage.Table, step plan.Step, area sphere.Region,
	localWhere sqlparse.Expr, crossWhere []sqlparse.Expr, incomingCols []dataset.Column) (*stepRunner, error) {

	priorCols := incomingCols[xmatch.NumAccCols:]

	// Compile the step's predicates once against the combined tuple
	// layout: slots [0, len(priorCols)) hold the incoming tuple's carried
	// columns, slots from npc up hold this archive's candidate row in
	// schema order. References qualified by this step's alias bind to the
	// candidate; everything else binds to the carried columns (with
	// MapEnv's bare-name fallback). Binding errors therefore surface here,
	// before any tuple is touched. A drop-out step has no cross predicates
	// (plan.Validate rejects them), so its veto predicate sees only the
	// candidate.
	npc := len(priorCols)
	schema := table.Schema()
	width := npc + len(schema)
	tl := table.Layout(step.Alias)
	localProg, err := eval.CompileTyped(localWhere, offsetLayout(tl, npc))
	if err != nil {
		return nil, fmt.Errorf("compiling local predicate %q: %w", step.LocalWhere, err)
	}
	priorLayout := eval.MapLayout{}
	for i, c := range priorCols {
		priorLayout[c.Name] = i
	}
	combined := eval.LayoutFunc(func(tbl, col string) (int, error) {
		if tbl == step.Alias {
			s, err := tl.Slot(tbl, col)
			if err != nil {
				return 0, err
			}
			return npc + s, nil
		}
		return priorLayout.Slot(tbl, col)
	})
	crossProgs := make([]*eval.TypedProgram, len(crossWhere))
	for i, cw := range crossWhere {
		if crossProgs[i], err = eval.CompileTyped(cw, combined); err != nil {
			return nil, fmt.Errorf("compiling cross predicate %q: %w", step.CrossWhere[i], err)
		}
	}
	// Pre-gather pruning: mine the step's whole predicate sequence (local
	// conjuncts, then each cross predicate's, the evaluation order below)
	// for comparisons of a candidate column against a constant, and build
	// one shared per-block pruner over this archive's zone maps. Workers
	// consult it below the HTM search, so candidates from provably dead
	// blocks never get a position test, a chi-square gate entry, or a
	// typed gather. The residual programs above run unchanged on the
	// survivors — zone statistics prove blocks dead, never rows live. A
	// candidate from a pruned block can never pass a veto predicate either,
	// so pruning cannot flip a veto, and the exactness conditions keep it
	// from surfacing or hiding an error.
	var pruner *storage.CandPruner
	if candPruneEnabled.Load() {
		seq := []eval.PruneExpr{{Expr: localWhere, Layout: offsetLayout(tl, npc)}}
		for _, cw := range crossWhere {
			seq = append(seq, eval.PruneExpr{Expr: cw, Layout: combined})
		}
		ps := eval.AnalyzeChainPrune(seq,
			func(s int) value.Type {
				if s < npc {
					return priorCols[s].Type
				}
				return schema[s-npc].Type
			},
			func(s int) (int, bool) { return s - npc, s >= npc },
		)
		pruner = table.CandPruner(ps)
	}
	accept := func(_ int, pos sphere.Vec) bool {
		// Every observation in the result must lie in the query AREA.
		return area.Contains(pos)
	}
	// Slot classes for batch filling: carried-column slots are broadcast
	// once per chunk (they are constant for a tuple), the local
	// predicate's candidate columns are gathered for every candidate, and
	// cross-only candidate columns only for the rows that survived both
	// the local predicate and the chi-square gate.
	refs := [][]int{localProg.Refs()}
	for _, cp := range crossProgs {
		refs = append(refs, cp.Refs())
	}
	var priorSlots, localRefs, crossRefs []int
	for _, s := range eval.UnionRefs(refs...) {
		switch {
		case s < npc:
			priorSlots = append(priorSlots, s)
		case slices.Contains(localProg.Refs(), s):
			localRefs = append(localRefs, s-npc)
		default:
			crossRefs = append(crossRefs, s-npc)
		}
	}

	bs := eval.BatchSize()
	type joinScratch struct {
		batch    *eval.TBatch
		localEv  *eval.TypedEval
		crossEvs []*eval.TypedEval
		sb       storage.SearchBatch
		accs     []xmatch.Accumulator
		gate     []int
	}
	scratch := newScratchList(func() *joinScratch {
		sc := &joinScratch{
			batch:   eval.NewTBatch(width, bs),
			localEv: localProg.NewEval(bs),
			sb: storage.SearchBatch{
				Rows:   make([]int, 0, bs),
				Pos:    make([]sphere.Vec, 0, bs),
				Prune:  pruner,
				Accept: accept,
			},
			accs: make([]xmatch.Accumulator, bs),
			gate: make([]int, 0, bs),
		}
		for _, cp := range crossProgs {
			sc.crossEvs = append(sc.crossEvs, cp.NewEval(bs))
		}
		return sc
	})
	// Each incoming tuple joins independently (§5.3 is embarrassingly
	// parallel per partial tuple); workers each take whole tuples, draw
	// the tuple's candidate blocks from the pruned batch search in search
	// order, and the per-tuple outputs are merged in input order, so the
	// result is identical to the sequential, row-at-a-time scan's. One run
	// call handles one batch of tuples; the scratch free-list persists
	// across calls, so a streamed step warms up once, not per page.
	run := func(rows [][]value.Value) ([][]value.Value, error) {
		return forEachOrdered(len(rows), n.parallelism(p.Parallelism), func(tRow int) ([][]value.Value, error) {
			row := rows[tRow]
			acc, err := xmatch.CellsToAcc(row)
			if err != nil {
				return nil, err
			}
			// A tuple without a gate match yields nothing on a mandatory
			// archive and survives a drop-out one.
			var out [][]value.Value
			if step.DropOut {
				out = [][]value.Value{row}
			}
			radius := acc.SearchRadius(p.Threshold, step.SigmaArcsec)
			if radius <= 0 {
				return out, nil
			}
			sc := scratch.get()
			defer scratch.put(sc)
			var stepErr error
			process := func(cand []int, poss []sphere.Vec) bool {
				cn := len(cand)
				sc.batch.SetLen(cn)
				for _, s := range priorSlots {
					// Carried columns are constant per tuple: broadcast the cell
					// in its own dynamic type, so typed kernels and the boxed
					// row engines see identical operands.
					sc.batch.Col(s).Broadcast(row[xmatch.NumAccCols+s], cn)
				}
				for _, ci := range localRefs {
					table.GatherColumn(sc.batch.Col(npc+ci), ci, cand)
				}
				sel, _, err := localProg.Filter(sc.localEv, sc.batch, sc.localEv.Seq(cn))
				if step.DropOut {
					// sel holds the candidates before any failing one, in
					// search order, and the first gate match among them vetoes.
					// The row-at-a-time loop stopped there, so a predicate
					// error at a later candidate is suppressed exactly as that
					// loop (which never reached it) would have — the veto
					// wins, the error does not exist.
					for _, i := range sel {
						if acc.Add(poss[i], step.SigmaArcsec).Matches(p.Threshold) {
							out = nil
							return false
						}
					}
					if err != nil {
						stepErr = err
						return false
					}
					return true
				}
				if err != nil {
					stepErr = err
					return false
				}
				// The chi-square gate sits between the local and the cross
				// predicates, as in the row-at-a-time loop.
				gate := sc.gate[:0]
				for _, i := range sel {
					next := acc.Add(poss[i], step.SigmaArcsec)
					if next.Matches(p.Threshold) {
						sc.accs[i] = next
						gate = append(gate, i)
					}
				}
				for _, ci := range crossRefs {
					table.GatherColumnSel(sc.batch.Col(npc+ci), ci, cand, gate)
				}
				for i, cp := range crossProgs {
					if len(gate) == 0 {
						break
					}
					if gate, _, err = cp.Filter(sc.crossEvs[i], sc.batch, gate); err != nil {
						stepErr = err
						return false
					}
				}
				for _, i := range gate {
					cells := xmatch.AccToCells(sc.accs[i])
					cells = append(cells, row[xmatch.NumAccCols:]...)
					cells = append(cells, n.columnCells(table, step, cand[i])...)
					out = append(out, cells)
				}
				return true
			}
			searchCap := sphere.CapAround(acc.Best(), radius)
			if err := table.SearchCapBatch(searchCap, &sc.sb, process); err != nil {
				return nil, err
			}
			if stepErr != nil {
				return nil, stepErr
			}
			return out, nil
		})
	}
	outCols := incomingCols
	if !step.DropOut {
		outCols = n.tupleColumns(incomingCols, table, step)
	}
	return &stepRunner{
		outCols: outCols,
		run:     run,
		close: func() {
			scratch.release(func(sc *joinScratch) {
				sc.batch.Release()
				sc.localEv.Release()
				for _, ev := range sc.crossEvs {
					ev.Release()
				}
			})
		},
	}, nil
}

// offsetLayout shifts every slot of a layout by off: the cap-join kernel
// compiles the candidate-table predicate against the combined tuple row,
// whose candidate portion starts at the offset.
func offsetLayout(l eval.Layout, off int) eval.Layout {
	return eval.LayoutFunc(func(table, column string) (int, error) {
		s, err := l.Slot(table, column)
		if err != nil {
			return 0, err
		}
		return off + s, nil
	})
}

// tupleColumns builds the output tuple schema: accumulator columns, the
// incoming tuple's carried columns, then this step's contributed columns
// qualified as "alias.column".
func (n *Node) tupleColumns(incomingCols []dataset.Column, table *storage.Table, step plan.Step) []dataset.Column {
	cols := xmatch.AccColumns()
	if incomingCols != nil {
		cols = append(cols, incomingCols[xmatch.NumAccCols:]...)
	}
	schema := table.Schema()
	for _, c := range step.Columns {
		typ := value.FloatType
		if ci := schema.Index(c); ci >= 0 {
			typ = schema[ci].Type
		}
		cols = append(cols, dataset.Column{Name: step.Alias + "." + c, Type: typ})
	}
	return cols
}

// columnCells extracts this step's contributed column values for a row of
// the primary table. Unknown columns yield NULL (they would have failed
// validation at the Portal already).
func (n *Node) columnCells(table *storage.Table, step plan.Step, row int) []value.Value {
	schema := table.Schema()
	out := make([]value.Value, 0, len(step.Columns))
	for _, c := range step.Columns {
		ci := schema.Index(c)
		if ci < 0 {
			out = append(out, value.Null)
			continue
		}
		// Unlocked read: columnCells runs inside the chain step's
		// read-only phase (often under a SearchCapBatch callback).
		out = append(out, table.ValueUnlocked(row, ci))
	}
	return out
}
