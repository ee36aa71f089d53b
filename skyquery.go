// Package skyquery is a from-scratch reproduction of "SkyQuery: A Web
// Service Approach to Federate Databases" (Malik, Szalay, Budavari,
// Thakar): a federation of autonomous astronomy archives that answers
// probabilistic federated spatial join ("cross match") queries through
// SOAP web services over HTTP.
//
// The package is a facade over the internal engine. It lets you:
//
//   - launch a complete in-process federation (Portal + SkyNodes served on
//     loopback HTTP) over synthetic sky surveys with Launch;
//
//   - attach hand-built archives via NodeSpec and the storage API
//     (NewDB, Schema, ...);
//
//   - submit cross-match queries in the paper's dialect:
//
//     SELECT O.object_id, T.object_id
//     FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
//     WHERE AREA(185.0, -0.5, 900)
//     AND XMATCH(O, T, !P) < 3.5
//     AND O.type = 'GALAXY' AND (O.flux - T.flux) > 2
//
//   - talk to a remote Portal with Dial;
//
//   - run the pull-to-portal baseline and inspect execution plans, for
//     the experiments in internal/experiments (printed by
//     cmd/skyquery-bench).
//
// # Contexts, options, errors
//
// Every public query entry point is context-first: cancelling the
// context aborts the in-flight federation work and promptly releases
// server-side resources (admission slots, parked chunk transfers).
// Federations are configured with functional options
// (LaunchWith(WithBodies(2000), WithShards(8), ...)); clients with
// Dial(url, WithClientCodec(...), ...). Failures surface as typed,
// root-exported errors: *ParseError (line/column + syntax-vs-semantic
// category), *ErrOverloaded (retryable admission shed), *StreamError
// (mid-stream federation failure — never a silently truncated result).
//
// # Sharding
//
// An archive may be partitioned by HTM trixel ranges across N shards,
// each with follower replicas (Options.Shards/Replicas, or the daemons'
// -shard/-replica-of flags). Queries scatter to only the shards whose
// trixel ranges intersect the query cover, prefer followers, and fail
// over on error; results are bit-identical at every shard count. See
// docs/FEDERATION.md.
//
// # Parallelism
//
// Each node's cross-match chain step (§5.3) partitions its partial tuples
// across a bounded worker pool; per-worker output is merged in input
// order, so results are bit-identical at every setting. The worker count
// is Options.Parallelism (and, underneath, portal.Config.Parallelism as a
// plan-carried hint plus skynode.Config.Parallelism as each node's
// override; the daemons expose it as -parallelism). 0 means GOMAXPROCS;
// 1 recovers the sequential executor.
//
// # Compiled expressions
//
// Every SQL expression the pipeline evaluates per row — storage scan
// predicates and projections, the chain steps' local and cross-archive
// predicates, and the Portal's final projection — is compiled once at
// plan time (internal/eval.CompileTyped): column references resolve to
// integer slots of a tuple layout, function names and arities are
// checked, constant subtrees fold, and constant LIKE patterns turn into
// precompiled matchers. The resulting program evaluates batches of rows
// over typed column vectors with no maps, no string lookups, and no
// per-batch allocation in steady state, so each worker's inner loop costs
// slice reads plus the arithmetic itself. A consequence
// visible to clients: a bad predicate (unknown column, unknown function,
// wrong arity) is reported when the plan or chain step is built, before
// any data is scanned, instead of surfacing from the first row that
// happens to reach it. The tree-walking interpreter (internal/eval.Eval)
// remains the reference semantics; differential tests and fuzz targets
// hold the two paths to identical values and errors.
package skyquery

import (
	"fmt"

	"skyquery/internal/client"
	"skyquery/internal/dataset"
	"skyquery/internal/nettrace"
	"skyquery/internal/plan"
	"skyquery/internal/sphere"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
	"skyquery/internal/value"
)

// Result is a query result set: typed columns plus rows of values.
type Result = dataset.DataSet

// Column describes one column of a Result.
type Column = dataset.Column

// Value is a dynamically typed SQL value.
type Value = value.Value

// ValueType enumerates SQL value types.
type ValueType = value.Type

// Column type constants for building schemas.
const (
	NullType   = value.NullType
	IntType    = value.IntType
	FloatType  = value.FloatType
	StringType = value.StringType
	BoolType   = value.BoolType
)

// Plan is a federated execution plan (exposed for inspection and the
// optimizer experiments).
type Plan = plan.Plan

// DB is an embedded archive database (the storage engine each SkyNode
// wraps).
type DB = storage.DB

// Schema describes the columns of a table.
type Schema = storage.Schema

// ColumnDef is one column definition of a Schema.
type ColumnDef = storage.ColumnDef

// SpatialConfig designates a table's position columns for HTM indexing.
type SpatialConfig = storage.SpatialConfig

// SurveySpec configures one synthetic sky survey (see internal/survey).
type SurveySpec = survey.Config

// Field is a synthetic population of true astronomical bodies.
type Field = survey.Field

// Transport is the instrumented HTTP transport used to count bytes on the
// wire and simulate WAN latency/bandwidth.
type Transport = nettrace.Transport

// TransportStats is a snapshot of Transport counters.
type TransportStats = nettrace.Stats

// Cap is a circular sky region.
type Cap = sphere.Cap

// NewDB returns an empty archive database.
func NewDB() *DB { return storage.NewDB() }

// NewCap returns the circular region centered at (ra, dec) degrees with
// the given radius in degrees.
func NewCap(ra, dec, radiusDeg float64) Cap { return sphere.NewCap(ra, dec, radiusDeg) }

// Arcsec converts arc seconds to degrees.
func Arcsec(a float64) float64 { return sphere.Arcsec(a) }

// ToArcsec converts degrees to arc seconds.
func ToArcsec(deg float64) float64 { return sphere.ToArcsec(deg) }

// GenerateField draws n true bodies uniformly inside the region;
// galaxyFrac of them are galaxies. Deterministic in seed.
func GenerateField(region Cap, n int, galaxyFrac float64, seed int64) *Field {
	return survey.GenerateField(region, n, galaxyFrac, seed)
}

// SurveyTableName is the primary-table name of generated synthetic
// archives.
const SurveyTableName = survey.TableName

// Client talks to a (possibly remote) Portal over SOAP.
type Client = client.Client

// Rows is a streaming row iterator over a query result (see
// Client.QueryRows): rows are yielded as the federation produces them,
// before the last chunk of the transfer exists.
type Rows = client.Rows

// Dial returns a client for the Portal at the given SOAP endpoint URL,
// configured by any DialOptions (see options.go).
func Dial(portalURL string, opts ...DialOption) *Client {
	c := client.New(portalURL)
	for _, apply := range opts {
		apply(c)
	}
	return c
}

// Values builds a row of values from Go primitives: int/int64 become INT,
// float64 FLOAT, string STRING, bool BOOL, nil NULL.
func Values(vals ...interface{}) ([]Value, error) {
	out := make([]Value, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			out[i] = value.Null
		case int:
			out[i] = value.Int(int64(x))
		case int64:
			out[i] = value.Int(x)
		case float64:
			out[i] = value.Float(x)
		case string:
			out[i] = value.String(x)
		case bool:
			out[i] = value.Bool(x)
		case Value:
			out[i] = x
		default:
			return nil, &UnsupportedValueError{Index: i, Value: v}
		}
	}
	return out, nil
}

// UnsupportedValueError reports a Go value Values could not convert.
type UnsupportedValueError struct {
	Index int
	Value interface{}
}

// Error implements the error interface.
func (e *UnsupportedValueError) Error() string {
	return fmt.Sprintf("skyquery: unsupported value type %T at index %d", e.Value, e.Index)
}
