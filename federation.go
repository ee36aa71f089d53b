package skyquery

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"skyquery/internal/nettrace"
	"skyquery/internal/portal"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
	"skyquery/internal/survey"
)

// Codec selects the wire codec for SOAP response bodies.
type Codec = soap.Codec

// Codec values for Options.Codec and the daemons' -codec flag.
const (
	// CodecNegotiate (the default) answers requests from binary-capable
	// clients with the columnar frame format and everyone else with XML.
	CodecNegotiate = soap.CodecNegotiate
	// CodecXML forces XML both ways — the paper-faithful wire format.
	CodecXML = soap.CodecXML
)

// ParseCodec parses a codec name ("binary", "columnar", "negotiate",
// "xml", or empty for the default).
func ParseCodec(s string) (Codec, bool) { return soap.ParseCodec(s) }

// Admission configures a node's step-execution admission gate (see
// skynode.Admission). The zero value disables admission.
type Admission = skynode.Admission

// DefaultOverloadRetries is how often clients retry a query shed by an
// overloaded node when Options.OverloadRetries is zero.
const DefaultOverloadRetries = 4

// NodeSpec attaches a hand-built archive database to a federation, for
// callers that do not want a generated synthetic survey.
type NodeSpec struct {
	// Name is the archive name used in queries.
	Name string
	// DB is the archive database; its PrimaryTable must exist and have a
	// spatial index (EnableSpatial).
	DB *DB
	// PrimaryTable, RACol, DecCol locate the object positions.
	PrimaryTable, RACol, DecCol string
	// SigmaArcsec is the archive's positional error.
	SigmaArcsec float64
}

// Options configures Launch.
type Options struct {
	// Region is the sky field synthetic surveys populate. The zero value
	// means the paper's example field: a 0.25 degree cap at (185, -0.5).
	Region Cap
	// Bodies is the number of true bodies to generate (default 1000).
	Bodies int
	// GalaxyFraction is the fraction of generated bodies that are
	// galaxies (default 0.4).
	GalaxyFraction float64
	// Seed drives field generation (default 1).
	Seed int64
	// Surveys configures the synthetic archives. When empty and no Nodes
	// are given, a three-survey default modeled on SDSS/2MASS/FIRST is
	// used.
	Surveys []SurveySpec
	// Nodes attaches hand-built archives in addition to Surveys.
	Nodes []NodeSpec
	// WANLatency and WANBandwidthBps shape all federation traffic through
	// the instrumented transport (0 = off).
	WANLatency time.Duration
	// WANBandwidthBps simulates link bandwidth in bytes/second (0 = off).
	WANBandwidthBps int64
	// RecordCalls enables the transport's per-call log.
	RecordCalls bool
	// ChunkRows bounds rows per SOAP message (0 = 5000).
	ChunkRows int
	// MessageLimit bounds SOAP message sizes on every server and client
	// (0 = the 10 MB default; negative = unlimited).
	MessageLimit int64
	// IncludeMatchColumns adds _matchRA/_matchDec/_logLikelihood/_nObs to
	// cross-match results.
	IncludeMatchColumns bool
	// CallTimeout bounds every portal→node SOAP call end to end (0 = the
	// soap.DefaultCallTimeout of 2 minutes; negative = no deadline). It
	// is the guard against a stalled node pinning a federated query
	// forever.
	CallTimeout time.Duration
	// Parallelism bounds the worker pool every node's cross-match chain
	// step partitions its tuples across, and is also written into plans
	// as the Portal's hint. 0 means GOMAXPROCS; 1 recovers the sequential
	// executor. Results are bit-identical at every setting.
	Parallelism int
	// Codec selects the SOAP wire codec for every server and client in
	// the federation. The default negotiates the binary columnar format;
	// CodecXML restores the paper-faithful XML wire.
	Codec Codec
	// Admission configures every node's step-execution admission gate.
	// The zero value disables admission (no limits, as before).
	Admission Admission
	// PlanCacheSize bounds the Portal's compiled-plan cache (entries per
	// generation; 0 = the default 256, negative = disabled).
	PlanCacheSize int
	// OverloadRetries is how often SOAP clients retry a call shed by an
	// overloaded node, with doubling backoff (0 = DefaultOverloadRetries,
	// negative = never retry).
	OverloadRetries int
	// Shards partitions every generated survey archive into this many
	// trixel-range shards, each served by its own SkyNode (0 or 1 = one
	// node per archive, the paper's layout). Queries scatter to only the
	// shards whose trixel ranges intersect the query cover; results are
	// bit-identical at every shard count.
	Shards int
	// Replicas adds this many read-replica followers per shard. Queries
	// prefer followers and fail over between replicas; appends go to the
	// shard leader.
	Replicas int
	// CountProbeOrder reverts chain ordering to the pure count-star rule
	// of §5.3, ignoring node column statistics. The default (false)
	// orders by the transfer-cost model when statistics are available.
	CountProbeOrder bool
	// PortalEvents and NodeEvents receive trace events when set.
	PortalEvents func(kind, detail string)
	NodeEvents   func(node, kind, detail string)
}

// DefaultSurveys mirrors the three archives of the paper's example query:
// a deep optical survey (SDSS-like), an infrared survey (2MASS-like), and
// a shallow radio survey (FIRST-like).
func DefaultSurveys() []SurveySpec {
	return []SurveySpec{
		{Name: "SDSS", SigmaArcsec: 0.1, Completeness: 0.95, FluxOffset: 3, Seed: 101},
		{Name: "TWOMASS", SigmaArcsec: 0.2, Completeness: 0.85, ExtraDensity: 0.1, Seed: 102},
		{Name: "FIRST", SigmaArcsec: 0.4, Completeness: 0.5, FluxOffset: -1, Seed: 103},
	}
}

// Federation is a running in-process federation: a Portal plus SkyNodes,
// all served over loopback HTTP and speaking SOAP to each other.
type Federation struct {
	// Portal is the mediator.
	Portal *portal.Portal
	// PortalURL is the Portal's SOAP endpoint.
	PortalURL string
	// Nodes maps archive names to their running SkyNodes.
	Nodes map[string]*skynode.Node
	// NodeURLs maps archive names to their SOAP endpoints.
	NodeURLs map[string]string
	// Field is the generated population (nil when only NodeSpecs were
	// given).
	Field *Field
	// Archives holds the generated synthetic archives by name.
	Archives map[string]*survey.Archive
	// Transport carries all traffic; read its Stats for bytes-on-wire.
	Transport *Transport

	mu       sync.Mutex
	servers  []*http.Server
	lns      []net.Listener
	nodeSrvs map[string]*http.Server
	codec    Codec
	retries  int
}

// KillNode abruptly shuts down the HTTP server of one node (a Nodes key
// such as "SDSS", "SDSS/0", or "SDSS/0/r1"), cutting its in-flight
// requests — the test stand-in for a crashed replica. The registry still
// lists the endpoint; queries discover the failure and fail over.
func (f *Federation) KillNode(key string) error {
	f.mu.Lock()
	srv := f.nodeSrvs[key]
	f.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("skyquery: no node %q", key)
	}
	return srv.Close()
}

// Launch builds and starts a federation.
func Launch(opts Options) (*Federation, error) {
	if opts.Region.Radius == 0 {
		opts.Region = NewCap(185, -0.5, 0.25)
	}
	if opts.Bodies == 0 {
		opts.Bodies = 1000
	}
	if opts.GalaxyFraction == 0 {
		opts.GalaxyFraction = 0.4
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if len(opts.Surveys) == 0 && len(opts.Nodes) == 0 {
		opts.Surveys = DefaultSurveys()
	}

	tr := &nettrace.Transport{
		Latency:      opts.WANLatency,
		BandwidthBps: opts.WANBandwidthBps,
		RecordCalls:  opts.RecordCalls,
	}
	callTimeout := opts.CallTimeout
	switch {
	case callTimeout == 0:
		callTimeout = soap.DefaultCallTimeout
	case callTimeout < 0:
		callTimeout = 0
	}
	retries := opts.OverloadRetries
	switch {
	case retries == 0:
		retries = DefaultOverloadRetries
	case retries < 0:
		retries = 0
	}
	soapClient := &soap.Client{
		HTTPClient:   tr.ClientWithTimeout(callTimeout),
		MessageLimit: opts.MessageLimit,
		Codec:        opts.Codec,
		MaxRetries:   retries,
	}

	f := &Federation{
		Nodes:     map[string]*skynode.Node{},
		NodeURLs:  map[string]string{},
		Archives:  map[string]*survey.Archive{},
		Transport: tr,
		codec:     opts.Codec,
		retries:   retries,
	}

	var portalEvents func(portal.Event)
	if opts.PortalEvents != nil {
		fn := opts.PortalEvents
		portalEvents = func(e portal.Event) { fn(e.Kind, e.Detail) }
	}
	f.Portal = portal.New(portal.Config{
		Client:              soapClient,
		ChunkRows:           opts.ChunkRows,
		MessageLimit:        opts.MessageLimit,
		IncludeMatchColumns: opts.IncludeMatchColumns,
		Parallelism:         opts.Parallelism,
		PlanCacheSize:       opts.PlanCacheSize,
		CountProbeOrder:     opts.CountProbeOrder,
		Codec:               opts.Codec,
		OnEvent:             portalEvents,
	})
	portalURL, err := f.serve(f.Portal.Server())
	if err != nil {
		f.Close()
		return nil, err
	}
	f.PortalURL = portalURL
	f.Portal.SetSelfURL(portalURL)
	if err := f.Portal.SetWSDL(portalURL); err != nil {
		f.Close()
		return nil, err
	}

	var nodeEvents func(skynode.Event)
	if opts.NodeEvents != nil {
		fn := opts.NodeEvents
		nodeEvents = func(e skynode.Event) { fn(e.Node, e.Kind, e.Detail) }
	}

	// Generated surveys, sharded when Options.Shards asks for it.
	if len(opts.Surveys) > 0 {
		f.Field = GenerateField(opts.Region, opts.Bodies, opts.GalaxyFraction, opts.Seed)
		for _, cfg := range opts.Surveys {
			a := survey.Observe(f.Field, cfg)
			f.Archives[cfg.Name] = a
			if err := f.attachSharded(a, cfg, soapClient, opts, nodeEvents); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	// Hand-built archives.
	for _, spec := range opts.Nodes {
		if err := f.attach(spec, soapClient, opts, nodeEvents); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// attachSharded serves one generated archive: as a single node when
// Options.Shards is 0 or 1 and no replicas are asked for, otherwise as
// a trixel-range sharded replica set. Followers serve the same sealed
// data as their shard leader (they share its database — the in-process
// stand-in for replication of sealed column blocks).
func (f *Federation) attachSharded(a *survey.Archive, cfg SurveySpec, soapClient *soap.Client, opts Options, onEvent func(skynode.Event)) error {
	shards := opts.Shards
	if shards <= 1 && opts.Replicas <= 0 {
		db, err := a.BuildDB()
		if err != nil {
			return err
		}
		return f.attach(NodeSpec{
			Name: cfg.Name, DB: db, PrimaryTable: survey.TableName,
			RACol: "ra", DecCol: "dec", SigmaArcsec: cfg.SigmaArcsec,
		}, soapClient, opts, onEvent)
	}
	if shards <= 0 {
		shards = 1
	}
	parts := a.Partition(shards)
	level := a.SpatialLevel()
	for k, part := range parts {
		db, err := part.Archive.BuildDB()
		if err != nil {
			return err
		}
		spec := NodeSpec{
			Name: cfg.Name, DB: db, PrimaryTable: survey.TableName,
			RACol: "ra", DecCol: "dec", SigmaArcsec: cfg.SigmaArcsec,
		}
		si := portal.ShardInfo{Index: k, Count: shards, Level: level, Lo: part.Lo, Hi: part.Hi}
		url, err := f.serveNode(fmt.Sprintf("%s/%d", cfg.Name, k), spec, soapClient, opts, onEvent)
		if err != nil {
			return err
		}
		if err := f.Portal.RegisterShard(cfg.Name, url, si); err != nil {
			return err
		}
		for r := 0; r < opts.Replicas; r++ {
			// A follower shares the leader's database: identical sealed
			// blocks, served from another node.
			url, err := f.serveNode(fmt.Sprintf("%s/%d/r%d", cfg.Name, k, r+1), spec, soapClient, opts, onEvent)
			if err != nil {
				return err
			}
			fsi := si
			fsi.Follower = true
			if err := f.Portal.RegisterShard(cfg.Name, url, fsi); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveNode builds a SkyNode for the spec, serves it on loopback HTTP,
// and records it under the given key (the archive name for flat nodes,
// "archive/shard[/rN]" for shard replicas) without registering it.
func (f *Federation) serveNode(key string, spec NodeSpec, soapClient *soap.Client, opts Options, onEvent func(skynode.Event)) (string, error) {
	n, err := skynode.New(skynode.Config{
		Name:         spec.Name,
		DB:           spec.DB,
		PrimaryTable: spec.PrimaryTable,
		RACol:        spec.RACol,
		DecCol:       spec.DecCol,
		SigmaArcsec:  spec.SigmaArcsec,
		Client:       soapClient,
		ChunkRows:    opts.ChunkRows,
		MessageLimit: opts.MessageLimit,
		Parallelism:  opts.Parallelism,
		Admission:    opts.Admission,
		Codec:        opts.Codec,
		OnEvent:      onEvent,
	})
	if err != nil {
		return "", err
	}
	url, err := f.serve(n.Server())
	if err != nil {
		return "", err
	}
	if err := n.SetWSDL(url); err != nil {
		return "", err
	}
	f.Nodes[key] = n
	f.NodeURLs[key] = url
	f.mu.Lock()
	if f.nodeSrvs == nil {
		f.nodeSrvs = map[string]*http.Server{}
	}
	f.nodeSrvs[key] = f.servers[len(f.servers)-1]
	f.mu.Unlock()
	return url, nil
}

func (f *Federation) attach(spec NodeSpec, soapClient *soap.Client, opts Options, onEvent func(skynode.Event)) error {
	url, err := f.serveNode(spec.Name, spec, soapClient, opts, onEvent)
	if err != nil {
		return err
	}
	return f.Portal.Register(spec.Name, url)
}

// serve starts an HTTP server for the handler on a loopback port and
// returns its URL.
func (f *Federation) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("skyquery: listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	f.mu.Lock()
	f.servers = append(f.servers, srv)
	f.lns = append(f.lns, ln)
	f.mu.Unlock()
	return "http://" + ln.Addr().String(), nil
}

// Query submits a query to the federation's Portal (in-process; for the
// SOAP path use Client()). Cancelling ctx aborts in-flight federation
// work — scatter fan-out, chunk transfers, and node execution unwind.
func (f *Federation) Query(ctx context.Context, sql string) (*Result, error) {
	return f.Portal.Query(ctx, sql)
}

// PullQuery runs the pull-to-portal baseline executor for comparison
// experiments.
func (f *Federation) PullQuery(ctx context.Context, sql string) (*Result, error) {
	return f.Portal.PullQuery(ctx, sql)
}

// BuildPlan constructs (but does not execute) the plan for a cross-match
// query, including the count-star probes.
func (f *Federation) BuildPlan(ctx context.Context, sql string) (*Plan, error) {
	return f.Portal.BuildPlan(ctx, sql)
}

// Explain builds the query's plan and renders an EXPLAIN-style summary.
func (f *Federation) Explain(ctx context.Context, sql string) (string, error) {
	return f.Portal.Explain(ctx, sql)
}

// Client returns a SOAP client bound to the Portal endpoint, exercising
// the full web-service path a remote astronomer would use.
func (f *Federation) Client() *Client {
	c := Dial(f.PortalURL)
	c.SOAP = &soap.Client{HTTPClient: f.Transport.Client(), Codec: f.codec, MaxRetries: f.retries}
	return c
}

// Close shuts down all HTTP servers.
func (f *Federation) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var firstErr error
	for _, srv := range f.servers {
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.servers = nil
	f.lns = nil
	return firstErr
}
