// Package portal implements the SkyQuery Portal (§5.1): the mediator
// between clients and SkyNodes. It provides the Registration service
// nodes use to join the federation (cataloging their metadata and
// archive constants via call-backs to their Metadata and Information
// services) and the SkyQuery service that accepts cross-match queries,
// decomposes them, optimizes the execution order with count-star
// performance queries (§5.3), kicks off the daisy chain, and relays the
// final result to the client.
package portal

import (
	"context"
	"encoding/xml"
	"fmt"
	"sync"
	"sync/atomic"

	"skyquery/internal/core"
	"skyquery/internal/registry"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
	"skyquery/internal/wsdl"
)

// SOAPAction names of the Portal services.
const (
	ActionRegister = "urn:skyquery:Register"
	ActionSkyQuery = "urn:skyquery:SkyQuery"
)

// Event is a trace point emitted through Config.OnEvent; the F3
// experiment uses it to verify Figure 3's step order.
type Event struct {
	// Kind is one of "submit", "perfquery.send", "perfquery.recv",
	// "plan", "execute", "relay".
	Kind string
	// Detail is a human-readable annotation.
	Detail string
}

// Config assembles a Portal.
type Config struct {
	// Client is used for calls to SkyNodes; nil gets a default client.
	Client *soap.Client
	// ChunkRows bounds rows per response message; 0 means 5000.
	ChunkRows int
	// MessageLimit configures the SOAP server's accepted message size.
	MessageLimit int64
	// IncludeMatchColumns appends _matchRA, _matchDec, _logLikelihood and
	// _nObs diagnostic columns to cross-match results.
	IncludeMatchColumns bool
	// Parallelism is written into every execution plan as the per-node
	// worker-count hint for chain steps. 0 lets each node choose
	// (GOMAXPROCS); 1 requests the sequential path. A node's own
	// configuration overrides the hint.
	Parallelism int
	// PlanCacheSize bounds the compiled-plan cache (entries per
	// generation, two generations live — see plancache.go). 0 means
	// DefaultPlanCacheSize; negative disables plan caching.
	PlanCacheSize int
	// CountProbeOrder reverts chain ordering to the pure count-star rule
	// of §5.3. The default (false) probes nodes' StatsSummary service and
	// orders by the transfer-cost model when statistics are available.
	CountProbeOrder bool
	// Codec selects the SOAP server's response codec policy; the default
	// negotiates the binary columnar format with clients that accept it.
	Codec soap.Codec
	// OnEvent, when set, receives trace events; must be fast and
	// concurrency-safe.
	OnEvent func(Event)
}

// archiveInfo is the Portal's catalog entry for one registered SkyNode.
type archiveInfo struct {
	Name     string
	Endpoint string
	Info     skynode.InformationResponse
	Tables   map[string]skynode.TableMeta
}

// Portal is a running mediator.
type Portal struct {
	cfg    Config
	client *soap.Client
	server *soap.Server
	chunks soap.ChunkStore
	reg    *registry.Registry

	mu       sync.RWMutex
	catalog  map[string]*archiveInfo
	self     string
	querySeq atomic.Int64

	// shardDown remembers replica endpoints that failed a scatter call,
	// each until its cooldown expires (see scatter.go).
	shardDown sync.Map

	// catalogVersion bumps on every registration; the plan cache salts
	// its keys with it, so catalog changes invalidate cached plans.
	catalogVersion atomic.Uint64
	plans          *planCache

	// noStats caches endpoints whose node faulted on the StatsSummary
	// action (an older node), so every later plan skips the probe and
	// goes straight to the count-star fallback. Registration clears the
	// endpoint's entry: a re-registered node may have been upgraded.
	noStats sync.Map

	engineOnce sync.Once
	coreEngine *core.Engine
}

// New builds a Portal.
func New(cfg Config) *Portal {
	if cfg.ChunkRows == 0 {
		cfg.ChunkRows = 5000
	}
	p := &Portal{
		cfg:     cfg,
		client:  cfg.Client,
		reg:     registry.New(),
		catalog: map[string]*archiveInfo{},
		plans:   newPlanCache(cfg.PlanCacheSize),
	}
	if p.client == nil {
		p.client = &soap.Client{}
	}
	p.server = soap.NewServer()
	p.server.MessageLimit = cfg.MessageLimit
	p.server.Codec = cfg.Codec
	p.server.Handle(ActionRegister, p.handleRegister)
	p.server.Handle(ActionSkyQuery, p.handleSkyQuery)
	p.server.Handle(soap.FetchAction, p.chunks.FetchHandler())
	return p
}

// Server returns the Portal's SOAP server (an http.Handler).
func (p *Portal) Server() *soap.Server { return p.server }

// SetSelfURL records the Portal's own public URL. Sharded chain
// execution requires it: nodes fetch their step's incoming tuples back
// from the Portal's chunk stash at this address.
func (p *Portal) SetSelfURL(u string) {
	p.mu.Lock()
	p.self = u
	p.mu.Unlock()
}

func (p *Portal) selfURL() string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.self
}

// Registry exposes the service registry (read-mostly; useful for tools).
func (p *Portal) Registry() *registry.Registry { return p.reg }

// ChunkPending reports how many chunked transfers (client result tails
// and scatter stash tokens) the Portal currently holds parked (test
// instrumentation: cancelled work must release these promptly).
func (p *Portal) ChunkPending() int { return p.chunks.Pending() }

// SetWSDL generates and installs the Portal's WSDL for its public URL.
func (p *Portal) SetWSDL(endpoint string) error {
	doc, err := wsdl.Document(wsdl.Service{
		Name:     "SkyQueryPortal",
		Endpoint: endpoint,
		Operations: []wsdl.Operation{
			{Name: "Register", Action: ActionRegister, Doc: "join the federation"},
			{Name: "SkyQuery", Action: ActionSkyQuery, Doc: "submit a federated cross-match query"},
			{Name: "Fetch", Action: soap.FetchAction, Doc: "continuation fetch for chunked results"},
		},
	})
	if err != nil {
		return err
	}
	p.server.WSDL = doc
	return nil
}

func (p *Portal) emit(kind, format string, args ...interface{}) {
	if p.cfg.OnEvent == nil {
		return
	}
	p.cfg.OnEvent(Event{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// RegisterRequest is the wire form of the Registration service call: the
// joining node announces its name, endpoint, and available services.
type RegisterRequest struct {
	XMLName  xml.Name `xml:"Register"`
	Name     string   `xml:"name,attr"`
	Endpoint string   `xml:"endpoint,attr"`
	Services []string `xml:"Service,omitempty"`
	// Shard, when present, registers the node as one replica of a shard
	// of the archive instead of the whole archive (see WIRE.md).
	Shard *ShardInfo `xml:"Shard,omitempty"`
}

// ShardInfo is the registration payload announcing a node as one
// replica of a trixel-range shard: shard Index of Count, holding the
// inclusive trixel range [Lo, Hi] at HTM level Level. Follower marks a
// read replica; the default registers the shard's append leader.
type ShardInfo struct {
	Index    int    `xml:"index,attr"`
	Count    int    `xml:"count,attr"`
	Level    int    `xml:"level,attr"`
	Lo       uint64 `xml:"lo,attr"`
	Hi       uint64 `xml:"hi,attr"`
	Follower bool   `xml:"follower,attr,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	XMLName xml.Name `xml:"RegisterResponse"`
	OK      bool     `xml:"ok,attr"`
	// Members is the federation size after the registration.
	Members int `xml:"members,attr"`
}

// SkyQueryRequest is the wire form of a query submission.
type SkyQueryRequest struct {
	XMLName xml.Name `xml:"SkyQuery"`
	SQL     string   `xml:"SQL"`
}

func (p *Portal) handleRegister(r *soap.Request) (interface{}, error) {
	var req RegisterRequest
	if err := r.Decode(&req); err != nil {
		return nil, err
	}
	if req.Shard != nil {
		if err := p.RegisterShard(req.Name, req.Endpoint, *req.Shard); err != nil {
			return nil, err
		}
	} else if err := p.Register(req.Name, req.Endpoint); err != nil {
		return nil, err
	}
	return &RegisterResponse{OK: true, Members: p.reg.Len()}, nil
}

func (p *Portal) handleSkyQuery(r *soap.Request) (interface{}, error) {
	var req SkyQueryRequest
	if err := r.Decode(&req); err != nil {
		return nil, err
	}
	ctx := r.Context()
	// Prepare (parse, validate, plan, count-star probes) and open the
	// chain before the reply starts, so those failures still travel as
	// ordinary XML faults; only errors after the first streamed byte go
	// in-band as columnar error frames.
	ts, err := p.QueryStream(ctx, req.SQL)
	if err != nil {
		return nil, err
	}
	return p.chunks.Reply(r, p.cfg.ChunkRows, func(sw *soap.StreamWriter) error {
		defer ts.Close()
		if err := sw.Schema(ts.Columns()); err != nil {
			return err
		}
		for {
			page, err := ts.Next()
			if err != nil {
				return err
			}
			if page == nil {
				return nil
			}
			if err := sw.Page(page); err != nil {
				return err
			}
		}
	})
}

// Register adds a SkyNode to the federation. Following §5.1, the Portal
// responds to the registration request by calling the node's Metadata
// service (cataloging its schema) and then its Information service
// (fetching the archive constants).
func (p *Portal) Register(name, endpoint string) error {
	if name == "" || endpoint == "" {
		return fmt.Errorf("portal: registration needs a name and an endpoint")
	}
	ctx := context.Background()
	var meta skynode.MetadataResponse
	if err := p.client.Call(ctx, endpoint, skynode.ActionMetadata, &skynode.MetadataRequest{}, &meta); err != nil {
		return fmt.Errorf("portal: metadata call-back to %s: %w", name, err)
	}
	var info skynode.InformationResponse
	if err := p.client.Call(ctx, endpoint, skynode.ActionInformation, &skynode.InformationRequest{}, &info); err != nil {
		return fmt.Errorf("portal: information call-back to %s: %w", name, err)
	}
	if info.Name != name {
		return fmt.Errorf("portal: node at %s says it is %q, registration claims %q", endpoint, info.Name, name)
	}
	if info.SigmaArcsec <= 0 {
		return fmt.Errorf("portal: node %s reports non-positive sigma %v", name, info.SigmaArcsec)
	}
	tables := map[string]skynode.TableMeta{}
	for _, t := range meta.Tables {
		tables[t.Name] = t
	}
	if _, ok := tables[info.PrimaryTable]; !ok {
		return fmt.Errorf("portal: node %s primary table %q missing from its metadata", name, info.PrimaryTable)
	}

	p.mu.Lock()
	p.catalog[name] = &archiveInfo{Name: name, Endpoint: endpoint, Info: info, Tables: tables}
	p.mu.Unlock()
	p.catalogVersion.Add(1)
	// A (re-)registered node may have been upgraded: forget any cached
	// "no StatsSummary" verdict and let the next plan re-probe it.
	p.noStats.Delete(endpoint)
	return p.reg.Register(registry.Entry{
		Name:     name,
		Endpoint: endpoint,
		Services: skynode.Actions,
		Metadata: map[string]string{
			"sigmaArcsec":  fmt.Sprintf("%g", info.SigmaArcsec),
			"primaryTable": info.PrimaryTable,
			"objectCount":  fmt.Sprintf("%d", info.ObjectCount),
		},
	})
}

// RegisterShard registers a node as one replica of a shard of the
// archive: the usual Metadata/Information call-backs validate the node
// and catalog its schema, then the shard's range and role merge into
// the archive's shard map. The archive becomes queryable once its
// shards tile the full trixel universe at their level, each with a
// leader; queries against a partially-registered shard map fail loudly.
func (p *Portal) RegisterShard(name, endpoint string, si ShardInfo) error {
	if err := p.Register(name, endpoint); err != nil {
		return err
	}
	if err := p.reg.RegisterShard(name, si.Index, registry.ShardRange{Lo: si.Lo, Hi: si.Hi},
		si.Level, si.Count, endpoint, si.Follower); err != nil {
		return err
	}
	p.emit("register.shard", "%s/%d [%d,%d] %s", name, si.Index, si.Lo, si.Hi, endpoint)
	return nil
}

// archive returns the catalog entry for a registered archive.
func (p *Portal) archive(name string) (*archiveInfo, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	a, ok := p.catalog[name]
	if !ok {
		return nil, fmt.Errorf("portal: archive %q is not part of the federation", name)
	}
	return a, nil
}

// Archives returns the names of the registered archives, sorted.
func (p *Portal) Archives() []string {
	entries := p.reg.List()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}
