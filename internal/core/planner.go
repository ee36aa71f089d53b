package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"skyquery/internal/plan"
	"skyquery/internal/sqlparse"
)

// BuildPlan turns a validated cross-match query into an executable plan:
// it resolves every XMATCH archive in the catalog, decomposes the WHERE
// clause, fans out the count-star performance queries concurrently
// ("asynchronous SOAP messages", §5.3), orders the steps by the paper's
// rule, and assigns each cross-archive predicate to the chain step where
// it first becomes evaluable.
func (e *Engine) BuildPlan(ctx context.Context, q *sqlparse.Query) (*plan.Plan, error) {
	if q.XMatch == nil {
		return nil, fmt.Errorf("core: BuildPlan needs an XMATCH query")
	}
	if q.Area == nil {
		return nil, fmt.Errorf("core: cross-match queries need an AREA clause")
	}
	if q.Count {
		// Allowed: the count of matches; projection handles it.
	} else if len(q.Select) == 0 {
		return nil, fmt.Errorf("core: empty select list")
	}
	for _, item := range q.Select {
		if _, ok := item.Expr.(*sqlparse.Star); ok {
			return nil, fmt.Errorf("core: SELECT * is not supported in cross-match queries; list columns explicitly")
		}
	}

	// Map aliases to FROM entries and check XMATCH coverage.
	fromByAlias := map[string]sqlparse.TableRef{}
	for _, t := range q.From {
		fromByAlias[t.Name()] = t
	}
	inXMatch := map[string]bool{}
	dropOut := map[string]bool{}
	for _, a := range q.XMatch.Archives {
		inXMatch[a.Alias] = true
		dropOut[a.Alias] = a.DropOut
	}
	for alias := range fromByAlias {
		if !inXMatch[alias] {
			return nil, fmt.Errorf("core: table %q does not appear in the XMATCH clause", alias)
		}
	}
	for _, a := range q.XMatch.Archives {
		if _, ok := fromByAlias[a.Alias]; !ok {
			return nil, fmt.Errorf("core: XMATCH alias %q has no FROM entry", a.Alias)
		}
	}

	d := sqlparse.Decompose(q)

	// Drop-out archives contribute no columns: reject select-list or
	// cross-predicate references to them.
	for _, item := range q.Select {
		for _, tab := range sqlparse.Tables(item.Expr) {
			if dropOut[tab] {
				return nil, fmt.Errorf("core: select list references drop-out archive %q, which contributes no rows", tab)
			}
		}
	}
	for _, cp := range d.Cross {
		for _, tab := range cp.Aliases {
			if dropOut[tab] {
				return nil, fmt.Errorf("core: predicate %s references drop-out archive %q", cp.Expr, tab)
			}
		}
	}

	// Resolve archives and build the unordered steps.
	steps := make([]plan.Step, 0, len(q.XMatch.Archives))
	for _, xa := range q.XMatch.Archives {
		ref := fromByAlias[xa.Alias]
		if ref.Archive == "" {
			return nil, fmt.Errorf("core: table %q needs an archive qualifier (archive:table)", ref.Table)
		}
		a, err := e.Catalog.Archive(ref.Archive)
		if err != nil {
			return nil, err
		}
		ti, ok := a.Tables[ref.Table]
		if !ok {
			return nil, fmt.Errorf("core: archive %s has no table %q", a.Name, ref.Table)
		}
		cols := d.ColumnsFor(q, xa.Alias)
		for _, c := range cols {
			if _, ok := ti.Columns[c]; !ok {
				return nil, fmt.Errorf("core: table %s:%s has no column %q", a.Name, ref.Table, c)
			}
		}
		var localWhere string
		if lp := d.Local[xa.Alias]; lp != nil {
			localWhere = lp.String()
			if err := checkExprColumns(lp, xa.Alias, ti); err != nil {
				return nil, err
			}
		}
		steps = append(steps, plan.Step{
			Archive:     a.Name,
			Alias:       xa.Alias,
			Endpoint:    a.Endpoint,
			Table:       ref.Table,
			LocalWhere:  localWhere,
			Columns:     cols,
			SigmaArcsec: a.SigmaArcsec,
			DropOut:     xa.DropOut,
		})
	}

	area := plan.Area{RA: q.Area.RA, Dec: q.Area.Dec, RadiusArcsec: q.Area.RadiusArcsec}
	for _, v := range q.Area.Vertices {
		area.Vertices = append(area.Vertices, plan.Vertex{RA: v[0], Dec: v[1]})
	}
	if _, err := area.Region(); err != nil {
		// Reject malformed polygons (non-convex, too few vertices) at the
		// Portal rather than at every node.
		return nil, err
	}

	// Planning probes, fanned out concurrently, one per mandatory archive
	// ("asynchronous SOAP messages", §5.3). Drop-outs are not probed: they
	// sit at the front of the call order regardless. Nodes that can serve
	// statistics answer a StatsSummary probe — an index candidate bound
	// plus a histogram selectivity estimate, no row counted — and any
	// failure (an older node faults on the unknown action) falls back to
	// the count-star performance query, so mixed federations plan without
	// error.
	type probeResult struct {
		idx   int
		count int64
		est   *StatsEstimate
		err   error
	}
	ss, _ := e.Services.(StatsServices)
	if e.CountProbeOrder {
		ss = nil
	}
	ch := make(chan probeResult, len(steps))
	outstanding := 0
	for i := range steps {
		if steps[i].DropOut {
			continue
		}
		outstanding++
		go func(i int) {
			a, err := e.Catalog.Archive(steps[i].Archive)
			if err != nil {
				ch <- probeResult{idx: i, err: err}
				return
			}
			if ss != nil {
				probe := &StatsProbe{
					Table:      steps[i].Table,
					Alias:      steps[i].Alias,
					LocalWhere: steps[i].LocalWhere,
					Area:       area,
				}
				e.emit("statsquery.send", "%s: table=%s where=%q", steps[i].Archive, probe.Table, probe.LocalWhere)
				if est, err := ss.StatsSummary(ctx, a, probe); err == nil && est.HasStats {
					ch <- probeResult{idx: i, count: est.AreaRows, est: est}
					return
				}
			}
			sql := e.performanceQuery(q, steps[i])
			e.emit("perfquery.send", "%s: %s", steps[i].Archive, sql)
			c, err := e.Services.CountStar(ctx, a, sql, area)
			ch <- probeResult{idx: i, count: c, err: err}
		}(i)
	}
	statsBased := 0
	for ; outstanding > 0; outstanding-- {
		r := <-ch
		if r.err != nil {
			return nil, fmt.Errorf("core: performance query at %s: %w", steps[r.idx].Archive, r.err)
		}
		steps[r.idx].Count = r.count
		if r.est != nil {
			steps[r.idx].EstRows = r.est.EstRows
			steps[r.idx].StatsBased = true
			statsBased++
			e.emit("statsquery.recv", "%s: area=%d est=%.0f sel=%.3f",
				steps[r.idx].Archive, r.est.AreaRows, r.est.EstRows, r.est.Selectivity)
		} else {
			steps[r.idx].EstRows = float64(r.count)
			e.emit("perfquery.recv", "%s: count=%d", steps[r.idx].Archive, r.count)
		}
	}

	// Chain order: cost-based whenever any archive produced a statistics
	// estimate, the paper's count rule otherwise (and under
	// CountProbeOrder). Costs weigh the estimated surviving candidates by
	// per-row transfer bytes and by each path's observed throughput;
	// archives that fell back to count-star still get a cost (their
	// count is their row estimate), so mixed federations order on one
	// consistent key.
	var ordered []plan.Step
	if statsBased > 0 {
		e.assignCosts(steps)
		ordered = plan.OrderByCost(steps)
		for i := range ordered {
			e.emit("plan.cost", "%s: est=%.0f rowBytes=%.0f cost=%.3g",
				ordered[i].Archive, ordered[i].EstRows, ordered[i].RowBytes(), ordered[i].Cost)
		}
	} else {
		ordered = plan.Order(steps)
	}
	assignCrossPredicates(ordered, d)
	p := &plan.Plan{
		QueryID:     e.queryID(),
		Threshold:   q.XMatch.Threshold,
		Area:        area,
		Steps:       ordered,
		ChunkRows:   e.chunkRows(),
		Parallelism: e.Parallelism,
	}
	for _, item := range q.Select {
		p.SelectList = append(p.SelectList, item.Expr.String())
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e.emit("plan", "%s", p)
	return p, nil
}

// assignCosts stamps every step's Cost using the shared transfer-cost
// model. Throughput comes from the Services' observed per-path history
// when it keeps one; archives whose path has no history yet are charged
// the slowest measured throughput (conservative — an unmeasured WAN path
// should not look free), and when nothing has been measured at all every
// path costs its relative byte volume.
func (e *Engine) assignCosts(steps []plan.Step) {
	thr := make([]float64, len(steps))
	if ts, ok := e.Services.(ThroughputServices); ok {
		for i := range steps {
			thr[i] = ts.ObservedThroughput(steps[i].Endpoint)
		}
		plan.EffectiveThroughputs(thr)
		minPos := 0.0
		for _, t := range thr {
			if t > 0 && (minPos == 0 || t < minPos) {
				minPos = t
			}
		}
		for i := range thr {
			if thr[i] <= 0 {
				thr[i] = minPos // 0 when nothing measured; CostOf maps it to 1
			}
		}
	}
	for i := range steps {
		steps[i].Cost = plan.CostOf(&steps[i], thr[i])
	}
}

// performanceQuery builds the count-star probe for one archive: the AREA
// clause plus the archive's local predicates, exactly the §5.3 examples.
func (e *Engine) performanceQuery(q *sqlparse.Query, step plan.Step) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT COUNT(*) FROM %s %s WHERE %s",
		step.Table, step.Alias, q.Area.String())
	if step.LocalWhere != "" {
		fmt.Fprintf(&sb, " AND %s", step.LocalWhere)
	}
	return sb.String()
}

// assignCrossPredicates attaches each cross-archive predicate to the step
// where it first becomes evaluable. Execution unwinds the call order from
// the end, so walking steps in execution order, a predicate fires at the
// first mandatory step whose archive completes the predicate's alias set —
// pruning tuples as early as the data allows.
func assignCrossPredicates(ordered []plan.Step, d sqlparse.Decomposition) {
	available := map[string]bool{}
	for i := len(ordered) - 1; i >= 0; i-- {
		if ordered[i].DropOut {
			continue
		}
		alias := ordered[i].Alias
		available[alias] = true
		for _, expr := range d.CrossPredicatesReadyAt(alias, available) {
			ordered[i].CrossWhere = append(ordered[i].CrossWhere, expr.String())
		}
		sort.Strings(ordered[i].CrossWhere)
	}
}

// checkExprColumns validates that a local predicate only references
// columns present in the archive's table.
func checkExprColumns(e sqlparse.Expr, alias string, ti TableInfo) error {
	var err error
	sqlparse.Walk(e, func(n sqlparse.Expr) {
		if err != nil {
			return
		}
		if c, ok := n.(*sqlparse.ColumnRef); ok {
			if c.Table != "" && c.Table != alias {
				return
			}
			if _, ok := ti.Columns[c.Column]; !ok {
				err = fmt.Errorf("core: table %s has no column %q", ti.Name, c.Column)
			}
		}
	})
	return err
}

// BuildPlanSQL parses and validates sql, then builds its plan. It is the
// string-level convenience wrapper around BuildPlan.
func (e *Engine) BuildPlanSQL(ctx context.Context, sql string) (*plan.Plan, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := sqlparse.Validate(q); err != nil {
		return nil, err
	}
	return e.BuildPlan(ctx, q)
}
