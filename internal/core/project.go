package core

import (
	"fmt"

	"skyquery/internal/dataset"
	"skyquery/internal/eval"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// projector evaluates the query's select list over the final partial
// tuples returned by the chain, producing the client-visible result.
// It is built once per execution — select and ORDER BY expressions are
// compiled against the payload layout up front, so bad references fail
// before any tuple is projected — and then fed pages of tuples as they
// arrive. Three shapes fall out of the query:
//
//   - plain select lists project each page as it arrives and emit it
//     immediately; TOP without ORDER BY truncates inside the page and
//     tells the caller to stop pulling, so tuples past the boundary are
//     never touched (streaming keeps them from even crossing the wire);
//   - COUNT(*) folds each page into a counter and emits one row at
//     finish;
//   - ORDER BY must see every tuple before the first result row, so
//     projected rows and their sort keys buffer until finish sorts them
//     (and TOP truncates after the sort).
//
// Page boundaries never affect the produced cells — each page is
// evaluated in chunks of eval.BatchSize, as one whole-set page would be
// — which is what keeps results bit-identical at every page size.
type projector struct {
	outCols      []dataset.Column
	count        bool
	countN       int64
	hasOrder     bool
	top          int
	includeMatch bool

	selExprs   []sqlparse.Expr
	orderExprs []sqlparse.Expr
	selProgs   []*eval.TypedProgram
	orderProgs []*eval.TypedProgram
	refs       []int

	batch    *eval.TBatch
	evs      []*eval.TypedEval
	selEvs   []*eval.TypedEval
	orderEvs []*eval.TypedEval
	selOut   []*eval.Vector
	orderOut []*eval.Vector
	seqEv    *eval.TypedEval
	payload  []dataset.Column

	emitted  int             // plain mode: rows emitted so far (TOP stop)
	buffered [][]value.Value // ORDER BY mode: projected rows awaiting sort
	sortKeys [][]value.Value
}

// newProjector compiles the query's select list and sort keys against
// the tuple schema.
func (e *Engine) newProjector(q *sqlparse.Query, tupleCols []dataset.Column) (*projector, error) {
	if len(tupleCols) < xmatch.NumAccCols {
		return nil, fmt.Errorf("core: malformed tuple set: %d columns", len(tupleCols))
	}
	pr := &projector{top: q.Top, hasOrder: len(q.OrderBy) > 0, includeMatch: e.IncludeMatchColumns}
	if q.Count {
		pr.count = true
		pr.outCols = []dataset.Column{{Name: "count", Type: value.IntType}}
		return pr, nil
	}

	// Result schema from the select list.
	for _, item := range q.Select {
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
			if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
				name = cr.String()
			}
		}
		pr.outCols = append(pr.outCols, dataset.Column{Name: name, Type: projType(item.Expr, tupleCols)})
		pr.selExprs = append(pr.selExprs, item.Expr)
	}
	if e.IncludeMatchColumns {
		pr.outCols = append(pr.outCols,
			dataset.Column{Name: "_matchRA", Type: value.FloatType},
			dataset.Column{Name: "_matchDec", Type: value.FloatType},
			dataset.Column{Name: "_logLikelihood", Type: value.FloatType},
			dataset.Column{Name: "_nObs", Type: value.IntType},
		)
	}

	pr.payload = tupleCols[xmatch.NumAccCols:]
	layout := eval.MapLayout{}
	for i, c := range pr.payload {
		layout[c.Name] = i
	}
	pr.selProgs = make([]*eval.TypedProgram, len(q.Select))
	for i, item := range q.Select {
		p, err := eval.CompileTyped(item.Expr, layout)
		if err != nil {
			return nil, fmt.Errorf("core: projecting %s: %w", item.Expr, err)
		}
		pr.selProgs[i] = p
	}
	pr.orderProgs = make([]*eval.TypedProgram, len(q.OrderBy))
	for i, o := range q.OrderBy {
		p, err := eval.CompileTyped(o.Expr, layout)
		if err != nil {
			return nil, fmt.Errorf("core: ORDER BY %s: %w", o.Expr, err)
		}
		pr.orderProgs[i] = p
		pr.orderExprs = append(pr.orderExprs, o.Expr)
	}

	bs := eval.BatchSize()
	pr.batch = eval.NewTBatch(len(pr.payload), bs)
	pr.selEvs = make([]*eval.TypedEval, len(pr.selProgs))
	pr.selOut = make([]*eval.Vector, len(pr.selProgs))
	for i, p := range pr.selProgs {
		pr.selEvs[i] = p.NewEval(bs)
		pr.evs = append(pr.evs, pr.selEvs[i])
	}
	pr.orderEvs = make([]*eval.TypedEval, len(pr.orderProgs))
	pr.orderOut = make([]*eval.Vector, len(pr.orderProgs))
	for i, p := range pr.orderProgs {
		pr.orderEvs[i] = p.NewEval(bs)
		pr.evs = append(pr.evs, pr.orderEvs[i])
	}
	var refLists [][]int
	for _, p := range pr.selProgs {
		refLists = append(refLists, p.Refs())
	}
	for _, p := range pr.orderProgs {
		refLists = append(refLists, p.Refs())
	}
	pr.refs = eval.UnionRefs(refLists...)
	pr.seqEv = (*eval.TypedProgram)(nil).NewEval(bs)
	pr.evs = append(pr.evs, pr.seqEv)
	return pr, nil
}

// needMore reports whether the projector still wants tuples. False once
// a plain TOP has been satisfied — the caller can stop pulling (and, in
// streaming, abandon the rest of the transfer).
func (pr *projector) needMore() bool {
	if pr.count || pr.hasOrder || pr.top <= 0 {
		return true
	}
	return pr.emitted < pr.top
}

// page projects one page of tuples and returns the result rows ready to
// emit now (nil for COUNT and ORDER BY, which produce only at finish).
func (pr *projector) page(rows [][]value.Value) ([][]value.Value, error) {
	if pr.count {
		pr.countN += int64(len(rows))
		return nil, nil
	}
	bs := eval.BatchSize()
	var out [][]value.Value
	for off := 0; off < len(rows); off += bs {
		cn := min(bs, len(rows)-off)
		if !pr.hasOrder && pr.top > 0 {
			if need := pr.top - pr.emitted; cn > need {
				cn = need
			}
		}
		if cn <= 0 {
			break
		}
		chunk := rows[off : off+cn]
		for _, s := range pr.refs {
			pr.batch.Col(s).FillFromCells(cn, pr.payload[s].Type, func(k int) value.Value {
				return chunk[k][xmatch.NumAccCols+s]
			})
		}
		pr.batch.SetLen(cn)
		sel := pr.seqEv.Seq(cn)
		for i, p := range pr.selProgs {
			vec, _, err := p.EvalVec(pr.selEvs[i], pr.batch, sel)
			if err != nil {
				return nil, fmt.Errorf("core: projecting %s: %w", pr.selExprs[i], err)
			}
			pr.selOut[i] = vec
		}
		for i, p := range pr.orderProgs {
			vec, _, err := p.EvalVec(pr.orderEvs[i], pr.batch, sel)
			if err != nil {
				return nil, fmt.Errorf("core: ORDER BY %s: %w", pr.orderExprs[i], err)
			}
			pr.orderOut[i] = vec
		}
		for k, row := range chunk {
			cells := make([]value.Value, 0, len(pr.outCols))
			for i := range pr.selProgs {
				cells = append(cells, pr.selOut[i].ValueAt(k))
			}
			if pr.includeMatch {
				acc, err := xmatch.CellsToAcc(row)
				if err != nil {
					return nil, err
				}
				ra, dec := acc.Best().RaDec()
				cells = append(cells,
					value.Float(ra), value.Float(dec),
					value.Float(acc.LogLikelihood()), value.Int(int64(acc.N)))
			}
			if pr.hasOrder {
				pr.buffered = append(pr.buffered, cells)
				keys := make([]value.Value, len(pr.orderProgs))
				for i := range pr.orderProgs {
					keys[i] = pr.orderOut[i].ValueAt(k)
				}
				pr.sortKeys = append(pr.sortKeys, keys)
			} else {
				out = append(out, cells)
			}
		}
	}
	pr.emitted += len(out)
	return out, nil
}

// finish returns whatever the projector held back: the COUNT(*) row, or
// the sorted (and TOP-truncated) ORDER BY buffer. Plain queries return
// nothing here. orderBy is the query's sort spec (unused in other
// modes).
func (pr *projector) finish(orderBy []sqlparse.OrderItem) ([][]value.Value, error) {
	if pr.count {
		return [][]value.Value{{value.Int(pr.countN)}}, nil
	}
	if !pr.hasOrder {
		return nil, nil
	}
	sorted, err := eval.SortRows(pr.buffered, pr.sortKeys, orderBy)
	if err != nil {
		return nil, err
	}
	if pr.top > 0 && len(sorted) > pr.top {
		sorted = sorted[:pr.top]
	}
	pr.buffered, pr.sortKeys = nil, nil
	return sorted, nil
}

// close releases the projector's pooled batch and evaluator scratch.
func (pr *projector) close() {
	if pr.batch != nil {
		pr.batch.Release()
		pr.batch = nil
	}
	for _, ev := range pr.evs {
		ev.Release()
	}
	pr.evs = nil
}

// projType infers a column type for a projected expression from the tuple
// schema, defaulting to FLOAT.
func projType(e sqlparse.Expr, tupleCols []dataset.Column) value.Type {
	if cr, ok := e.(*sqlparse.ColumnRef); ok {
		for _, c := range tupleCols {
			if c.Name == cr.String() {
				return c.Type
			}
		}
	}
	switch n := e.(type) {
	case *sqlparse.StringLit:
		return value.StringType
	case *sqlparse.BoolLit:
		return value.BoolType
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return value.BoolType
		}
	case *sqlparse.FuncCall:
		// Function results must be typed correctly or the wire codec
		// rejects their cells (UPPER in a select list used to relay a
		// STRING cell under a FLOAT column).
		return eval.FuncResultType(n, func(arg sqlparse.Expr) value.Type { return projType(arg, tupleCols) })
	}
	return value.FloatType
}
