// Package core is the paper's primary contribution assembled into one
// engine: federated cross-match query processing. It parses the dialect,
// validates a query against the federation catalog, decomposes the WHERE
// clause (§5.3), fans out count-star performance queries, builds the
// count-ordered execution plan (drop-outs first in call order, mandatory
// archives by decreasing count), launches the daisy chain, and projects
// the final tuples into the client-visible result.
//
// The engine is transport-agnostic: the Portal provides SOAP-backed
// implementations of Catalog and Services, while tests and benchmarks can
// plug in in-process fakes. The pull-to-portal baseline executor — the
// design the paper explicitly rejects ("Many federations ... pull results
// from each database to the Portal. SkyQuery, instead, moves the partial
// results ... along a chain") — lives in baseline.go for the comparison
// experiments.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"skyquery/internal/dataset"
	"skyquery/internal/plan"
	"skyquery/internal/sqlparse"
)

// TableInfo describes one table of an archive as known to the catalog.
type TableInfo struct {
	Name    string
	Rows    int64
	Columns map[string]string // column name -> type name
}

// Archive is the catalog's view of one federated SkyNode.
type Archive struct {
	Name         string
	Endpoint     string
	PrimaryTable string
	RACol        string
	DecCol       string
	SigmaArcsec  float64
	Tables       map[string]TableInfo
}

// Catalog resolves archive names to metadata. The Portal's registration
// catalog implements it.
type Catalog interface {
	Archive(name string) (*Archive, error)
}

// Services performs the remote operations of the federation. Every
// method takes the query's context first: cancelling it aborts the
// in-flight HTTP exchanges behind the call.
type Services interface {
	// CountStar runs a performance query (SELECT COUNT(*) ...) at the
	// archive and returns the bound. area is the query's AREA clause,
	// passed structurally so a sharded backend can route the probe to
	// only the shards whose trixel ranges the area covers.
	CountStar(ctx context.Context, a *Archive, sql string, area plan.Area) (int64, error)
	// CrossMatch hands the plan to the first step's node and returns the
	// final partial-tuple set that flowed back up the chain.
	CrossMatch(ctx context.Context, p *plan.Plan) (*dataset.DataSet, error)
	// TableQuery runs a complete single-archive query and returns its
	// rows (used for pass-through queries and the pull baseline).
	TableQuery(ctx context.Context, a *Archive, sql string) (*dataset.DataSet, error)
}

// StatsProbe is the planner's statistics request for one archive: the
// table, the query's AREA, and the archive-local predicate whose
// selectivity the node should estimate against its column statistics.
type StatsProbe struct {
	Table      string
	Alias      string
	LocalWhere string
	Area       plan.Area
}

// StatsEstimate is a node's answer to a StatsProbe.
type StatsEstimate struct {
	// TableRows is the table's current row count.
	TableRows int64
	// AreaRows is the spatial-index candidate bound inside the AREA.
	AreaRows int64
	// EstRows is the estimated surviving candidate count after AREA and
	// local-predicate pruning.
	EstRows float64
	// Selectivity is the estimated surviving fraction of the local
	// predicate (1 when there is none).
	Selectivity float64
	// HasStats is false when the node's store predates maintained column
	// statistics; the planner then falls back to the count-star probe.
	HasStats bool
}

// StatsServices is optionally implemented by a Services whose nodes can
// answer StatsSummary probes. Any error — including the unknown-action
// fault an older node raises — sends the planner to the count-star
// fallback for that archive, so mixed federations plan without error.
type StatsServices interface {
	StatsSummary(ctx context.Context, a *Archive, probe *StatsProbe) (*StatsEstimate, error)
}

// ThroughputServices is optionally implemented by a Services that can
// report the observed transfer throughput of an archive's path
// (bytes/sec; 0 when nothing has been measured yet).
type ThroughputServices interface {
	ObservedThroughput(endpoint string) float64
}

// Event is a trace point; kinds follow Figure 3's numbered steps.
type Event struct {
	// Kind is one of "submit", "decompose", "perfquery.send",
	// "perfquery.recv", "plan", "execute", "relay".
	Kind string
	// Detail is a human-readable annotation.
	Detail string
}

// Engine executes federated queries.
type Engine struct {
	// Catalog resolves archives. Required.
	Catalog Catalog
	// Services performs remote calls. Required.
	Services Services
	// ChunkRows is the per-message row bound written into plans; 0 means
	// 5000.
	ChunkRows int
	// Parallelism is the chain-step worker-count hint written into plans;
	// 0 lets each node choose (GOMAXPROCS), 1 requests the sequential
	// path.
	Parallelism int
	// IncludeMatchColumns appends _matchRA, _matchDec, _logLikelihood,
	// _nObs diagnostics to cross-match results.
	IncludeMatchColumns bool
	// CountProbeOrder reverts chain ordering to the pure count-star rule
	// of §5.3, even when the Services can serve statistics. The default
	// (false) orders by the transfer-cost model whenever statistics are
	// available.
	CountProbeOrder bool
	// OnEvent, when set, receives trace events.
	OnEvent func(Event)

	querySeq atomic.Int64
}

func (e *Engine) emit(kind, format string, args ...interface{}) {
	if e.OnEvent == nil {
		return
	}
	e.OnEvent(Event{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Prepared is a compiled query: parsed, validated, and — for cross-match
// queries — planned, with the count-star performance queries already
// spent. A Prepared can be executed any number of times; each run stamps
// a fresh query ID into a copy of the plan, so concurrent executions of
// the same Prepared are independent. The Portal's plan cache holds these
// across requests, amortizing the parse/validate/plan (and its count-star
// round-trips) over every re-submission of the same query text.
type Prepared struct {
	q    *sqlparse.Query
	plan *plan.Plan // nil for pass-through (non-XMATCH) queries
}

// Execute parses and runs a query, returning the final result set.
// Cancelling ctx aborts the probes and the chain mid-flight.
func (e *Engine) Execute(ctx context.Context, sql string) (*dataset.DataSet, error) {
	prep, err := e.Prepare(ctx, sql)
	if err != nil {
		return nil, err
	}
	return e.ExecutePrepared(ctx, prep)
}

// Prepare parses, validates, and plans a query without executing it.
// For cross-match queries this includes the count-star performance
// probes, so preparing is itself a federated operation. It emits the
// "submit" event (Figure 3 step 1); re-running a cached Prepared should
// announce the submission through EmitSubmit instead.
func (e *Engine) Prepare(ctx context.Context, sql string) (*Prepared, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	e.emit("submit", "%s", strings.TrimSpace(sql))
	if err := sqlparse.Validate(q); err != nil {
		return nil, err
	}
	prep := &Prepared{q: q}
	if q.XMatch != nil {
		p, err := e.BuildPlan(ctx, q)
		if err != nil {
			return nil, err
		}
		prep.plan = p
	}
	return prep, nil
}

// EmitSubmit announces a query submission. Prepare emits it on the
// miss path; callers replaying a cached Prepared call this so the event
// trace keeps its submit -> execute -> relay shape.
func (e *Engine) EmitSubmit(sql string) {
	e.emit("submit", "%s", strings.TrimSpace(sql))
}

// ExecutePrepared runs a previously prepared query. Cross-match plans
// are executed on a copy stamped with a fresh query ID; the Prepared
// itself is never mutated and stays valid for further executions.
func (e *Engine) ExecutePrepared(ctx context.Context, prep *Prepared) (*dataset.DataSet, error) {
	if prep.plan == nil {
		return e.passThrough(ctx, prep.q)
	}
	pl := *prep.plan
	pl.QueryID = e.queryID()
	e.emit("execute", "chain: %s", &pl)
	tuples, err := e.Services.CrossMatch(ctx, &pl)
	if err != nil {
		return nil, err
	}
	res, err := e.project(prep.q, tuples)
	if err != nil {
		return nil, err
	}
	e.emit("relay", "%d rows to client", res.NumRows())
	return res, nil
}

// passThroughTarget resolves a non-XMATCH query to its single archive
// and the local query text the node should run (archive qualifier
// stripped: the node sees its local table name).
func (e *Engine) passThroughTarget(q *sqlparse.Query) (*Archive, string, error) {
	if len(q.From) != 1 {
		return nil, "", fmt.Errorf("core: queries over multiple archives need an XMATCH clause")
	}
	ref := q.From[0]
	if ref.Archive == "" {
		return nil, "", fmt.Errorf("core: federated tables are written archive:table, got %q", ref.Table)
	}
	a, err := e.Catalog.Archive(ref.Archive)
	if err != nil {
		return nil, "", err
	}
	if _, ok := a.Tables[ref.Table]; !ok {
		return nil, "", fmt.Errorf("core: archive %s has no table %q", a.Name, ref.Table)
	}
	local := *q
	local.From = []sqlparse.TableRef{{Table: ref.Table, Alias: ref.Alias}}
	return a, local.String(), nil
}

// passThrough relays a non-XMATCH query to its single archive.
func (e *Engine) passThrough(ctx context.Context, q *sqlparse.Query) (*dataset.DataSet, error) {
	a, local, err := e.passThroughTarget(q)
	if err != nil {
		return nil, err
	}
	e.emit("execute", "pass-through to %s", a.Name)
	res, err := e.Services.TableQuery(ctx, a, local)
	if err != nil {
		return nil, err
	}
	e.emit("relay", "%d rows to client", res.NumRows())
	return res, nil
}

// queryID returns a fresh plan identifier.
func (e *Engine) queryID() string {
	return fmt.Sprintf("q-%d", e.querySeq.Add(1))
}

func (e *Engine) chunkRows() int {
	if e.ChunkRows == 0 {
		return 5000
	}
	return e.ChunkRows
}
