// Package skynode implements a SkyNode (§5.1): an autonomous archive
// wrapped behind the four SkyQuery web services — Information, Metadata,
// Query, and CrossMatch — plus the chunk-fetch operation used for large
// results. The wrapper hides the archive's internals (here the
// internal/storage engine with its HTM index) and presents the uniform
// SOAP surface the Portal expects.
//
// The CrossMatch service realizes the daisy chain of §5.3: a node that is
// not last in the plan's call order forwards the plan to the next node
// first, then runs its own step over each page of partial tuples that
// flows back, and returns the extended tuples to its caller. Every bulk
// answer (CrossMatch and Query) is a page stream, produced once; the
// caller's Accept decides whether the pages stream or park as chunks it
// fetches (soap.ChunkStore.Reply).
//
// # Predicate pushdown below the HTM search
//
// A chain step runs one of two runners (see step.go): the seed step scans
// the AREA for its 1-tuples, and every later step runs one cap-join
// kernel that searches around each incoming tuple and either extends it
// (mandatory archive) or vetoes it (drop-out archive). Either runner
// compiles its LocalWhere/CrossWhere predicates once and evaluates them
// with the typed batch engine over natively gathered candidate columns.
// Before any of that, the step mines the predicate sequence with
// eval.AnalyzeChainPrune for conjuncts comparing a candidate-table column
// against a constant and hands them to the archive table's zone maps
// (storage.CandPruner): HTM
// candidates whose per-1024-row block provably cannot satisfy such a
// conjunct are dropped inside the index walk — before their position is
// computed, before the AREA containment test, before the chi-square gate,
// and before a single cell is gathered. The pruning obeys the same
// error-exactness contract as the base-table zone maps (never hide or
// invent an error or a drop-out veto w.r.t. the row engines' AND
// short-circuit order), so results are bit-identical with pruning on or
// off; SetCandPrune exists only so benchmarks can measure the difference.
// The surviving candidates flow through the pre-gather prune -> typed
// gather -> chi2 gate -> residual-program pipeline in unchanged search
// order, in batches of at most eval.BatchSize() candidates.
//
// Two storage counters prove the work was skipped end to end:
// storage.CandBlocksPruned (zone blocks proven dead below a search) and
// storage.CandRowsGathered (candidate rows that actually reached a
// batch). The CI perf-regression gate defends the resulting trajectory:
// BENCH_scan.json records the pruned vs unpruned chain-step timings and
// CI fails when any engine regresses >15% against the checked-in file.
package skynode

import (
	"fmt"
	"sync/atomic"

	"skyquery/internal/dataset"
	"skyquery/internal/soap"
	"skyquery/internal/storage"
	"skyquery/internal/wsdl"
)

// SOAPAction names of the SkyNode services.
const (
	ActionInformation = "urn:skyquery:Information"
	ActionMetadata    = "urn:skyquery:Metadata"
	ActionQuery       = "urn:skyquery:Query"
	ActionCrossMatch  = "urn:skyquery:CrossMatch"
)

// Actions lists every SOAP action a SkyNode serves. ActionStats is
// declared in stats.go.
var Actions = []string{
	ActionInformation, ActionMetadata, ActionQuery, ActionCrossMatch,
	ActionStats, soap.FetchAction,
}

// Event is a trace point emitted through Config.OnEvent; the F3 experiment
// uses it to verify the execution order of Figure 3.
type Event struct {
	// Node is the emitting archive's name.
	Node string
	// Kind is one of "query", "xmatch.recv", "xmatch.forward",
	// "xmatch.seed", "xmatch.step", "xmatch.dropout", "xmatch.return".
	Kind string
	// Detail is a human-readable annotation (row counts etc).
	Detail string
}

// Config assembles a SkyNode.
type Config struct {
	// Name is the archive name used in queries (e.g. "SDSS"). Required.
	Name string
	// DB is the wrapped database. Required.
	DB *storage.DB
	// PrimaryTable is the table holding one row per object with its sky
	// position (§5.1: "A primary table stores the unique sky position for
	// each astronomical object"). Required, must exist and have a
	// spatial index.
	PrimaryTable string
	// RACol and DecCol name the position columns of the primary table.
	RACol, DecCol string
	// SigmaArcsec is the survey's positional standard error, reported by
	// the Information service. Required, > 0.
	SigmaArcsec float64
	// Client is used for daisy-chain calls to other nodes; nil gets a
	// default SOAP client.
	Client *soap.Client
	// ChunkRows bounds rows per response message; 0 means 5000.
	ChunkRows int
	// MessageLimit configures the server's accepted message size;
	// 0 means soap.DefaultMessageLimit.
	MessageLimit int64
	// Parallelism bounds the worker pool each cross-match chain step
	// partitions its tuples across. 0 defers to the plan's hint and then
	// to GOMAXPROCS; 1 recovers the sequential executor. Output is
	// bit-identical at every setting.
	Parallelism int
	// Admission configures the step-execution admission gate (see
	// admission.go). The zero value disables admission: every step runs
	// immediately, as before the gate existed.
	Admission Admission
	// Codec selects the server's response codec policy; the default
	// negotiates the binary columnar format with clients that accept it.
	Codec soap.Codec
	// OnEvent, when set, receives trace events. It must be fast and
	// concurrency-safe.
	OnEvent func(Event)
}

// Node is a running SkyNode.
type Node struct {
	cfg    Config
	client *soap.Client
	server *soap.Server
	chunks soap.ChunkStore
	gate   *Gate

	// queriesServed counts Query service calls (cache-warming metric).
	queriesServed atomic.Int64
	// tuplesIn/tuplesOut count cross-match rows received and emitted.
	tuplesIn  atomic.Int64
	tuplesOut atomic.Int64
}

// New validates the configuration and builds a node.
func New(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("skynode: config needs a Name")
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("skynode %s: config needs a DB", cfg.Name)
	}
	if cfg.SigmaArcsec <= 0 {
		return nil, fmt.Errorf("skynode %s: SigmaArcsec must be positive", cfg.Name)
	}
	primary, ok := cfg.DB.Table(cfg.PrimaryTable)
	if !ok {
		return nil, fmt.Errorf("skynode %s: primary table %q does not exist", cfg.Name, cfg.PrimaryTable)
	}
	if !primary.HasSpatial() {
		return nil, fmt.Errorf("skynode %s: primary table %q has no spatial index", cfg.Name, cfg.PrimaryTable)
	}
	if cfg.RACol == "" || cfg.DecCol == "" {
		return nil, fmt.Errorf("skynode %s: RACol and DecCol are required", cfg.Name)
	}
	if primary.Schema().Index(cfg.RACol) < 0 || primary.Schema().Index(cfg.DecCol) < 0 {
		return nil, fmt.Errorf("skynode %s: position columns %q/%q not in %q",
			cfg.Name, cfg.RACol, cfg.DecCol, cfg.PrimaryTable)
	}
	if cfg.ChunkRows == 0 {
		cfg.ChunkRows = 5000
	}
	n := &Node{cfg: cfg, client: cfg.Client, gate: NewGate(cfg.Name, cfg.Admission)}
	if n.client == nil {
		n.client = &soap.Client{}
	}
	n.server = soap.NewServer()
	n.server.MessageLimit = cfg.MessageLimit
	n.server.Codec = cfg.Codec
	n.server.Handle(ActionInformation, n.handleInformation)
	n.server.Handle(ActionMetadata, n.handleMetadata)
	n.server.Handle(ActionQuery, n.handleQuery)
	n.server.Handle(ActionCrossMatch, n.handleCrossMatch)
	n.server.Handle(ActionStats, n.handleStats)
	n.server.Handle(soap.FetchAction, n.chunks.FetchHandler())
	return n, nil
}

// Server returns the SOAP server; it implements http.Handler.
func (n *Node) Server() *soap.Server { return n.server }

// SetWSDL generates and installs the node's WSDL document for the given
// public endpoint URL.
func (n *Node) SetWSDL(endpoint string) error {
	doc, err := wsdl.Document(wsdl.Service{
		Name:     "SkyNode." + n.cfg.Name,
		Endpoint: endpoint,
		Operations: []wsdl.Operation{
			{Name: "Information", Action: ActionInformation, Doc: "archive constants: positional error, primary table"},
			{Name: "Metadata", Action: ActionMetadata, Doc: "complete schema information"},
			{Name: "Query", Action: ActionQuery, Doc: "general-purpose database querying"},
			{Name: "CrossMatch", Action: ActionCrossMatch, Doc: "one step of the federated cross match"},
			{Name: "StatsSummary", Action: ActionStats, Doc: "column-statistics selectivity estimate for planning"},
			{Name: "Fetch", Action: soap.FetchAction, Doc: "continuation fetch for chunked results"},
		},
	})
	if err != nil {
		return err
	}
	n.server.WSDL = doc
	return nil
}

// Stats reports service counters.
func (n *Node) Stats() (queries, tuplesIn, tuplesOut int64) {
	return n.queriesServed.Load(), n.tuplesIn.Load(), n.tuplesOut.Load()
}

// AdmissionStats reports the admission gate's counters (all zero when
// admission is disabled).
func (n *Node) AdmissionStats() GateStats { return n.gate.Stats() }

// ChunkPending reports how many chunked transfers the node currently
// holds parked for continuation fetches (test instrumentation: a
// cancelled consumer must release these promptly, not leak them to the
// TTL sweep).
func (n *Node) ChunkPending() int { return n.chunks.Pending() }

// admit funnels one step execution through the admission gate,
// converting a shed into the retryable Overloaded SOAP fault.
func (n *Node) admit(weight int64) (func(), error) {
	release, err := n.gate.Acquire(weight)
	if err != nil {
		n.emit("admission.shed", "%v", err)
		return nil, &soap.Fault{Code: "soap:Server", String: err.Error(), Detail: soap.FaultDetailOverloaded}
	}
	return release, nil
}

func (n *Node) emit(kind, format string, args ...interface{}) {
	if n.cfg.OnEvent == nil {
		return
	}
	n.cfg.OnEvent(Event{Node: n.cfg.Name, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// resultToDataSet converts a storage result to the wire data set.
func resultToDataSet(res *storage.Result) *dataset.DataSet {
	d := &dataset.DataSet{}
	for _, c := range res.Columns {
		d.Columns = append(d.Columns, dataset.Column{Name: c.Name, Type: c.Type})
	}
	d.Rows = res.Rows
	return d
}
