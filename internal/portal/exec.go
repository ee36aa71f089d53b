package portal

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"

	"skyquery/internal/core"
	"skyquery/internal/dataset"
	"skyquery/internal/nettrace"
	"skyquery/internal/plan"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// engine lazily builds the core engine wired to this Portal's catalog and
// SOAP client.
func (p *Portal) engine() *core.Engine {
	p.engineOnce.Do(func() {
		p.coreEngine = &core.Engine{
			Catalog:             (*portalCatalog)(p),
			Services:            &portalServices{p: p},
			ChunkRows:           p.cfg.ChunkRows,
			Parallelism:         p.cfg.Parallelism,
			IncludeMatchColumns: p.cfg.IncludeMatchColumns,
			CountProbeOrder:     p.cfg.CountProbeOrder,
			OnEvent: func(ev core.Event) {
				p.emit(ev.Kind, "%s", ev.Detail)
			},
		}
	})
	return p.coreEngine
}

// Query executes a query (cross-match or single-archive) and returns the
// final result set. Repeated submissions of the same query (under any
// formatting) replay its cached prepared form, skipping parse, validate,
// plan, and the count-star performance probes.
func (p *Portal) Query(ctx context.Context, sql string) (*dataset.DataSet, error) {
	prep, err := p.prepared(ctx, sql)
	if err != nil {
		return nil, err
	}
	return p.engine().ExecutePrepared(ctx, prep)
}

// QueryStream executes a query and returns the result as a page stream:
// rows reach the caller as the chain produces them, and the Portal holds
// one page at a time instead of the folded result. Plan caching works
// exactly as in Query.
func (p *Portal) QueryStream(ctx context.Context, sql string) (core.TupleStream, error) {
	prep, err := p.prepared(ctx, sql)
	if err != nil {
		return nil, err
	}
	return p.engine().ExecutePreparedStream(ctx, prep)
}

// prepared resolves sql to its compiled form through the plan cache
// (cache hits replay the Prepared and re-announce the submission; a nil
// cache prepares every time).
func (p *Portal) prepared(ctx context.Context, sql string) (*core.Prepared, error) {
	eng := p.engine()
	if p.plans == nil {
		return eng.Prepare(ctx, sql)
	}
	key, err := p.planKey(sql)
	if err != nil {
		return nil, err
	}
	if prep, ok := p.plans.get(key); ok {
		eng.EmitSubmit(sql)
		return prep, nil
	}
	prep, err := eng.Prepare(ctx, sql)
	if err != nil {
		return nil, err
	}
	p.plans.put(key, prep)
	return prep, nil
}

// planKey builds the plan-cache key for a query: its canonical parsed
// form (so formatting differences share an entry) plus the portal's
// planning salt (so catalog or option changes do not).
func (p *Portal) planKey(sql string) (string, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	return q.String() + "\x00" + p.planSalt(), nil
}

// PullQuery executes a cross-match with the pull-to-portal baseline
// strategy (see core.PullExecute); used by the comparison experiments.
func (p *Portal) PullQuery(ctx context.Context, sql string) (*dataset.DataSet, error) {
	return p.engine().PullExecute(ctx, sql)
}

// BuildPlan parses the query and constructs (but does not execute) its
// plan, including the count-star probes. Useful for tools and tests.
func (p *Portal) BuildPlan(ctx context.Context, sql string) (*plan.Plan, error) {
	return p.engine().BuildPlanSQL(ctx, sql)
}

// Explain builds the query's plan without executing it and renders an
// EXPLAIN-style summary: the chosen chain order on the first line, then
// one line per step (in call order; execution unwinds in reverse, so
// the last step seeds) with the planner's cardinality estimate —
// statistics-based when the node answered a StatsSummary probe, the
// count-star bound otherwise — the transfer-cost estimate, and the
// predicate pushed to the node. Estimate-vs-actual counts for executed
// queries surface in the event stream: "plan.cost" per planned step at
// prepare time and "xmatch.estimate" from the seed node at run time.
func (p *Portal) Explain(ctx context.Context, sql string) (string, error) {
	pl, err := p.BuildPlan(ctx, sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "order: %s\n", pl)
	for i, s := range pl.Steps {
		role := "extend"
		switch {
		case s.DropOut:
			role = "dropout"
		case i == len(pl.Steps)-1:
			role = "seed"
		}
		fmt.Fprintf(&b, "step %d: %s %s table=%s count=%d", i+1, s.Archive, role, s.Table, s.Count)
		if s.StatsBased {
			fmt.Fprintf(&b, " est=%.0f (stats)", s.EstRows)
		}
		if s.Cost > 0 {
			fmt.Fprintf(&b, " cost=%.3g", s.Cost)
		}
		if s.LocalWhere != "" {
			fmt.Fprintf(&b, " where=%q", s.LocalWhere)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// portalCatalog adapts the Portal's registration catalog to core.Catalog.
type portalCatalog Portal

// Archive implements core.Catalog.
func (pc *portalCatalog) Archive(name string) (*core.Archive, error) {
	p := (*Portal)(pc)
	a, err := p.archive(name)
	if err != nil {
		return nil, err
	}
	out := &core.Archive{
		Name:         a.Name,
		Endpoint:     a.Endpoint,
		PrimaryTable: a.Info.PrimaryTable,
		RACol:        a.Info.RACol,
		DecCol:       a.Info.DecCol,
		SigmaArcsec:  a.Info.SigmaArcsec,
		Tables:       map[string]core.TableInfo{},
	}
	for name, t := range a.Tables {
		ti := core.TableInfo{Name: name, Rows: t.Rows, Columns: map[string]string{}}
		for _, c := range t.Columns {
			ti.Columns[c.Name] = c.Type
		}
		out.Tables[name] = ti
	}
	return out, nil
}

// portalServices adapts SOAP calls to core.Services.
type portalServices struct {
	p *Portal
}

// CountStar implements core.Services via the node's Query service. For
// a sharded archive the probe scatters to the shards whose trixel
// ranges the query area covers and the per-shard counts are summed.
func (s *portalServices) CountStar(ctx context.Context, a *core.Archive, sql string, area plan.Area) (int64, error) {
	if m := s.p.shardMapFor(a.Name); m != nil {
		return s.p.scatterCount(ctx, m, sql, &area)
	}
	ds, err := s.TableQuery(ctx, a, sql)
	if err != nil {
		return 0, err
	}
	return oneIntCell(ds)
}

// oneIntCell extracts the single INT cell of a 1x1 result set.
func oneIntCell(ds *dataset.DataSet) (int64, error) {
	if ds.NumRows() != 1 || len(ds.Columns) != 1 {
		return 0, fmt.Errorf("portal: performance query returned %dx%d, want 1x1", ds.NumRows(), len(ds.Columns))
	}
	v := ds.Rows[0][0]
	if v.Type() != value.IntType {
		return 0, fmt.Errorf("portal: performance query returned %v, want INT", v.Type())
	}
	return v.AsInt(), nil
}

// StatsSummary implements core.StatsServices via the node's StatsSummary
// service. Endpoints that have faulted on the action (older nodes) are
// remembered and skipped — the planner goes straight to its count-star
// fallback for them — until the node re-registers.
func (s *portalServices) StatsSummary(ctx context.Context, a *core.Archive, probe *core.StatsProbe) (*core.StatsEstimate, error) {
	if m := s.p.shardMapFor(a.Name); m != nil {
		return s.p.scatterStats(ctx, m, probe)
	}
	if _, old := s.p.noStats.Load(a.Endpoint); old {
		return nil, fmt.Errorf("portal: node %s has no StatsSummary service", a.Name)
	}
	var resp skynode.StatsResponse
	err := s.p.client.Call(ctx, a.Endpoint, skynode.ActionStats, &skynode.StatsRequest{
		Table:      probe.Table,
		Alias:      probe.Alias,
		LocalWhere: probe.LocalWhere,
		Area:       probe.Area,
	}, &resp)
	if err != nil {
		var f *soap.Fault
		if errors.As(err, &f) && strings.Contains(f.String, "unknown SOAPAction") {
			s.p.noStats.Store(a.Endpoint, true)
		}
		return nil, err
	}
	return &core.StatsEstimate{
		TableRows:   resp.TableRows,
		AreaRows:    resp.AreaRows,
		EstRows:     resp.EstRows,
		Selectivity: resp.Selectivity,
		HasStats:    resp.HasStats,
	}, nil
}

// ObservedThroughput implements core.ThroughputServices from the
// process-wide per-host transfer registry that every instrumented
// transport feeds.
func (s *portalServices) ObservedThroughput(endpoint string) float64 {
	u, err := url.Parse(endpoint)
	if err != nil || u.Host == "" {
		return 0
	}
	return nettrace.ObservedThroughput(u.Host)
}

// TableQuery implements core.Services via the node's Query service,
// draining chunked responses.
func (s *portalServices) TableQuery(ctx context.Context, a *core.Archive, sql string) (*dataset.DataSet, error) {
	if m := s.p.shardMapFor(a.Name); m != nil {
		return s.p.scatterTableQuery(ctx, m, sql)
	}
	var first soap.ChunkedData
	if err := s.p.client.Call(ctx, a.Endpoint, skynode.ActionQuery, &skynode.QueryRequest{SQL: sql}, &first); err != nil {
		return nil, err
	}
	return soap.FetchAll(ctx, s.p.client, a.Endpoint, &first)
}

// CrossMatch implements core.Services: it sends the plan to the first
// step's node and drains the chunked tuple response.
func (s *portalServices) CrossMatch(ctx context.Context, pl *plan.Plan) (*dataset.DataSet, error) {
	if s.p.planSharded(pl) {
		return s.p.scatterCrossMatch(ctx, pl)
	}
	firstStep := pl.Steps[0]
	var first soap.ChunkedData
	if err := s.p.client.Call(ctx, firstStep.Endpoint, skynode.ActionCrossMatch,
		&skynode.CrossMatchRequest{Plan: *pl}, &first); err != nil {
		return nil, err
	}
	return soap.FetchAll(ctx, s.p.client, firstStep.Endpoint, &first)
}

// CrossMatchStream implements core.StreamServices: the chain's partial
// tuples flow back page by page, each chain node holding only its
// in-flight page. A node that cannot stream degrades transparently to
// chunk-by-chunk fetching inside the PageStream.
func (s *portalServices) CrossMatchStream(ctx context.Context, pl *plan.Plan) (core.TupleStream, error) {
	if s.p.planSharded(pl) {
		return s.p.scatterCrossMatchStream(ctx, pl)
	}
	firstStep := pl.Steps[0]
	return soap.OpenStream(ctx, s.p.client, firstStep.Endpoint, skynode.ActionCrossMatch,
		&skynode.CrossMatchRequest{Plan: *pl})
}

// TableQueryStream implements core.StreamServices via the node's Query
// service.
func (s *portalServices) TableQueryStream(ctx context.Context, a *core.Archive, sql string) (core.TupleStream, error) {
	if m := s.p.shardMapFor(a.Name); m != nil {
		// A sharded pass-through may need a portal-side global sort, so
		// it folds; the result is re-paged for the iterator shape.
		ds, err := s.p.scatterTableQuery(ctx, m, sql)
		if err != nil {
			return nil, err
		}
		return core.NewSliceStream(ds, s.p.cfg.ChunkRows), nil
	}
	return soap.OpenStream(ctx, s.p.client, a.Endpoint, skynode.ActionQuery, &skynode.QueryRequest{SQL: sql})
}
