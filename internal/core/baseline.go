package core

import (
	"context"
	"fmt"
	"strings"

	"skyquery/internal/dataset"
	"skyquery/internal/eval"
	"skyquery/internal/plan"
	"skyquery/internal/sphere"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// PullExecute runs a cross-match query with the architecture the paper
// rejects (§5.1): every archive's qualifying rows are pulled to the Portal
// ("Many federations, based on the wrapper-mediator architecture, pull
// results from each database to the Portal"), and the probabilistic join
// is computed centrally. It returns the same result as Execute and exists
// as the baseline for the chain-vs-pull experiment (C5): the chain ships
// partial results whose size shrinks with match selectivity, while the
// pull ships every candidate row regardless.
func (e *Engine) PullExecute(ctx context.Context, sql string) (*dataset.DataSet, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := sqlparse.Validate(q); err != nil {
		return nil, err
	}
	if q.XMatch == nil {
		return drained(e.ExecutePreparedStream(ctx, &Prepared{q: q}))
	}
	// Reuse the planner for validation, archive resolution and ordering.
	// The pull baseline still needs count-star probes to pick the same
	// join order, so the comparison isolates the data-movement strategy.
	p, err := e.BuildPlan(ctx, q)
	if err != nil {
		return nil, err
	}
	d := sqlparse.Decompose(q)

	// Pull each archive's qualifying rows (position columns included).
	pulled := make(map[string]*dataset.DataSet, len(p.Steps))
	for _, step := range p.Steps {
		a, err := e.Catalog.Archive(step.Archive)
		if err != nil {
			return nil, err
		}
		sqlText := pullQuery(a, step, q)
		ds, err := drained(e.Services.TableQueryStream(ctx, a, sqlText))
		if err != nil {
			return nil, fmt.Errorf("core: pull from %s: %w", step.Archive, err)
		}
		pulled[step.Archive] = ds
	}

	// Local chain over the pulled sets, in execution order (reverse call
	// order), mirroring the distributed algorithm exactly.
	var tuples *dataset.DataSet
	for i := len(p.Steps) - 1; i >= 0; i-- {
		step := p.Steps[i]
		a, err := e.Catalog.Archive(step.Archive)
		if err != nil {
			return nil, err
		}
		rows := pulled[step.Archive]
		if tuples == nil {
			tuples, err = seedLocal(a, step, rows)
		} else if step.DropOut {
			tuples, err = dropOutLocal(a, step, rows, tuples, p.Threshold)
		} else {
			tuples, err = extendLocal(a, step, rows, tuples, p.Threshold, d)
		}
		if err != nil {
			return nil, err
		}
	}
	return drained(e.projectStream(q, NewSliceStream(tuples, e.chunkRows())))
}

// pullQuery builds the per-archive query the baseline sends: the needed
// columns plus the archive's position columns, restricted by AREA and the
// local predicate.
func pullQuery(a *Archive, step plan.Step, q *sqlparse.Query) string {
	cols := []string{step.Alias + "." + a.RACol, step.Alias + "." + a.DecCol}
	for _, c := range step.Columns {
		if c == a.RACol || c == a.DecCol {
			continue
		}
		cols = append(cols, step.Alias+"."+c)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT %s FROM %s %s WHERE %s",
		strings.Join(cols, ", "), step.Table, step.Alias, q.Area.String())
	if step.LocalWhere != "" {
		fmt.Fprintf(&sb, " AND %s", step.LocalWhere)
	}
	return sb.String()
}

// pulledPos extracts the position of row i of a pulled set; the first two
// columns are RA and Dec by construction of pullQuery.
func pulledPos(rows *dataset.DataSet, i int) (raDec [2]float64, err error) {
	if len(rows.Columns) < 2 {
		return raDec, fmt.Errorf("core: pulled set has no position columns")
	}
	ra, ok1 := rows.Rows[i][0].AsFloat()
	dec, ok2 := rows.Rows[i][1].AsFloat()
	if !ok1 || !ok2 {
		return raDec, fmt.Errorf("core: pulled row %d has non-numeric position", i)
	}
	return [2]float64{ra, dec}, nil
}

// payloadColumns renames the pulled payload columns (dropping the two
// leading position columns) for the tuple schema.
func payloadColumns(step plan.Step, rows *dataset.DataSet) []dataset.Column {
	out := make([]dataset.Column, 0, len(step.Columns))
	for _, c := range step.Columns {
		// Nodes name result columns by their bare column name; the tuple
		// schema re-qualifies them with the step's alias.
		name := step.Alias + "." + c
		if ci := rows.ColumnIndex(c); ci >= 0 {
			out = append(out, dataset.Column{Name: name, Type: rows.Columns[ci].Type})
		} else {
			out = append(out, dataset.Column{Name: name, Type: value.FloatType})
		}
	}
	return out
}

func payloadCells(step plan.Step, rows *dataset.DataSet, i int) []value.Value {
	out := make([]value.Value, 0, len(step.Columns))
	for _, c := range step.Columns {
		ci := rows.ColumnIndex(c)
		if ci < 0 {
			out = append(out, value.Null)
			continue
		}
		out = append(out, rows.Rows[i][ci])
	}
	return out
}

func seedLocal(a *Archive, step plan.Step, rows *dataset.DataSet) (*dataset.DataSet, error) {
	cols := xmatch.AccColumns()
	cols = append(cols, payloadColumns(step, rows)...)
	out := &dataset.DataSet{Columns: cols}
	for i := range rows.Rows {
		rd, err := pulledPos(rows, i)
		if err != nil {
			return nil, err
		}
		acc := xmatch.Accumulator{}.Add(vecOf(rd), step.SigmaArcsec)
		cells := xmatch.AccToCells(acc)
		cells = append(cells, payloadCells(step, rows, i)...)
		out.Rows = append(out.Rows, cells)
	}
	return out, nil
}

func extendLocal(a *Archive, step plan.Step, rows *dataset.DataSet, tuples *dataset.DataSet,
	threshold float64, d sqlparse.Decomposition) (*dataset.DataSet, error) {

	// Compile the cross predicates once against the combined layout: the
	// tuple's carried columns first, then the pulled archive's columns
	// (which win name collisions, as the per-candidate map rebuild used
	// to). The predicates run as typed batch programs: per tuple, the
	// gate-passing candidates are chunked, the carried columns broadcast
	// once per chunk, the referenced pulled columns transposed into typed
	// vectors, and the selection threaded through the predicate list.
	payload := tuples.Columns[xmatch.NumAccCols:]
	npc := len(payload)
	layout := eval.MapLayout{}
	for i, c := range payload {
		layout[c.Name] = i
	}
	for ci, c := range rows.Columns {
		layout[c.Name] = npc + ci
	}
	var crossProgs []*eval.TypedProgram
	for _, src := range step.CrossWhere {
		ex, err := sqlparse.ParseExpr(src)
		if err != nil {
			return nil, err
		}
		prog, err := eval.CompileTyped(ex, layout)
		if err != nil {
			return nil, fmt.Errorf("core: compiling cross predicate %q: %w", src, err)
		}
		crossProgs = append(crossProgs, prog)
	}

	cols := append([]dataset.Column(nil), tuples.Columns...)
	cols = append(cols, payloadColumns(step, rows)...)
	out := &dataset.DataSet{Columns: cols}

	var refLists [][]int
	for _, p := range crossProgs {
		refLists = append(refLists, p.Refs())
	}
	allRefs := eval.UnionRefs(refLists...)
	var priorSlots, candSlots []int
	for _, s := range allRefs {
		if s < npc {
			priorSlots = append(priorSlots, s)
		} else {
			candSlots = append(candSlots, s)
		}
	}
	bs := eval.BatchSize()
	batch := eval.NewTBatch(npc+len(rows.Columns), bs)
	defer batch.Release()
	crossEvs := make([]*eval.TypedEval, len(crossProgs))
	for i, p := range crossProgs {
		crossEvs[i] = p.NewEval(bs)
		defer crossEvs[i].Release()
	}
	seqEv := (*eval.TypedProgram)(nil).NewEval(bs)
	defer seqEv.Release()
	cand := make([]int, 0, bs)             // pulled-row index per batch position
	accs := make([]xmatch.Accumulator, bs) // gate-passing accumulator per position

	for _, trow := range tuples.Rows {
		acc, err := xmatch.CellsToAcc(trow)
		if err != nil {
			return nil, err
		}
		radius := acc.SearchRadius(threshold, step.SigmaArcsec)
		if radius <= 0 {
			continue
		}
		best := acc.Best()
		flush := func() error {
			cn := len(cand)
			if cn == 0 {
				return nil
			}
			defer func() { cand = cand[:0] }()
			sel := seqEv.Seq(cn)
			if len(crossProgs) > 0 {
				batch.SetLen(cn)
				for _, s := range priorSlots {
					batch.Col(s).Broadcast(trow[xmatch.NumAccCols+s], cn)
				}
				for _, s := range candSlots {
					ci := s - npc
					batch.Col(s).FillFromCells(cn, rows.Columns[ci].Type, func(k int) value.Value {
						return rows.Rows[cand[k]][ci]
					})
				}
				for i, prog := range crossProgs {
					if len(sel) == 0 {
						break
					}
					var err error
					if sel, _, err = prog.Filter(crossEvs[i], batch, sel); err != nil {
						return err
					}
				}
			}
			for _, k := range sel {
				cells := xmatch.AccToCells(accs[k])
				cells = append(cells, trow[xmatch.NumAccCols:]...)
				cells = append(cells, payloadCells(step, rows, cand[k])...)
				out.Rows = append(out.Rows, cells)
			}
			return nil
		}
		for i := range rows.Rows {
			rd, err := pulledPos(rows, i)
			if err != nil {
				return nil, err
			}
			pos := vecOf(rd)
			if best.Sep(pos) > radius {
				continue
			}
			next := acc.Add(pos, step.SigmaArcsec)
			if !next.Matches(threshold) {
				continue
			}
			accs[len(cand)] = next
			cand = append(cand, i)
			if len(cand) == bs {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func dropOutLocal(a *Archive, step plan.Step, rows *dataset.DataSet, tuples *dataset.DataSet,
	threshold float64) (*dataset.DataSet, error) {

	out := &dataset.DataSet{Columns: tuples.Columns}
	for _, trow := range tuples.Rows {
		acc, err := xmatch.CellsToAcc(trow)
		if err != nil {
			return nil, err
		}
		radius := acc.SearchRadius(threshold, step.SigmaArcsec)
		vetoed := false
		if radius > 0 {
			best := acc.Best()
			for i := range rows.Rows {
				rd, err := pulledPos(rows, i)
				if err != nil {
					return nil, err
				}
				pos := vecOf(rd)
				if best.Sep(pos) > radius {
					continue
				}
				if acc.Add(pos, step.SigmaArcsec).Matches(threshold) {
					vetoed = true
					break
				}
			}
		}
		if !vetoed {
			out.Rows = append(out.Rows, trow)
		}
	}
	return out, nil
}

// vecOf converts an (ra, dec) pair to a unit vector.
func vecOf(rd [2]float64) sphere.Vec {
	return sphere.FromRaDec(rd[0], rd[1])
}
