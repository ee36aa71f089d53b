package skyquery

// Functional options for Launch and Dial. LaunchWith(WithBodies(2000),
// WithShards(8)) reads as configuration, composes helper-built presets,
// and keeps call sites source-compatible when Options grows a field —
// prefer it to filling an Options literal by hand (the struct stays
// exported for tests and callers that build configuration dynamically).

import (
	"net/http"
	"time"
)

// Option configures one aspect of a federation Launch.
type Option func(*Options)

// LaunchWith builds and starts a federation from functional options:
//
//	f, err := skyquery.LaunchWith(
//		skyquery.WithBodies(2000),
//		skyquery.WithShards(8),
//		skyquery.WithParallelism(4),
//	)
func LaunchWith(opts ...Option) (*Federation, error) {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return Launch(o)
}

// WithRegion sets the sky field synthetic surveys populate.
func WithRegion(region Cap) Option { return func(o *Options) { o.Region = region } }

// WithBodies sets the number of true bodies to generate.
func WithBodies(n int) Option { return func(o *Options) { o.Bodies = n } }

// WithGalaxyFraction sets the fraction of generated bodies that are
// galaxies.
func WithGalaxyFraction(f float64) Option { return func(o *Options) { o.GalaxyFraction = f } }

// WithSeed sets the field-generation seed.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithSurveys replaces the default three-survey layout.
func WithSurveys(specs ...SurveySpec) Option { return func(o *Options) { o.Surveys = specs } }

// WithNodes attaches hand-built archives.
func WithNodes(specs ...NodeSpec) Option {
	return func(o *Options) { o.Nodes = append(o.Nodes, specs...) }
}

// WithWAN shapes all federation traffic with the given one-way latency
// and link bandwidth (0 disables either).
func WithWAN(latency time.Duration, bandwidthBps int64) Option {
	return func(o *Options) { o.WANLatency = latency; o.WANBandwidthBps = bandwidthBps }
}

// WithRecordedCalls enables the transport's per-call log
// (Federation.Transport.Calls).
func WithRecordedCalls() Option { return func(o *Options) { o.RecordCalls = true } }

// WithChunkRows bounds rows per SOAP message.
func WithChunkRows(n int) Option { return func(o *Options) { o.ChunkRows = n } }

// WithMessageLimit bounds SOAP message sizes on every server and client.
func WithMessageLimit(n int64) Option { return func(o *Options) { o.MessageLimit = n } }

// WithMatchColumns adds _matchRA/_matchDec/_logLikelihood/_nObs to
// cross-match results.
func WithMatchColumns() Option { return func(o *Options) { o.IncludeMatchColumns = true } }

// WithCallTimeout bounds every portal→node SOAP call end to end.
func WithCallTimeout(d time.Duration) Option { return func(o *Options) { o.CallTimeout = d } }

// WithParallelism bounds the worker pool each chain step partitions its
// tuples across. Results are bit-identical at every setting.
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithCodec selects the SOAP wire codec for every server and client in
// the federation.
func WithCodec(c Codec) Option { return func(o *Options) { o.Codec = c } }

// WithAdmission configures every node's step-execution admission gate.
func WithAdmission(a Admission) Option { return func(o *Options) { o.Admission = a } }

// WithPlanCacheSize bounds the Portal's compiled-plan cache.
func WithPlanCacheSize(n int) Option { return func(o *Options) { o.PlanCacheSize = n } }

// WithOverloadRetries sets how often clients retry a query shed by an
// overloaded node (negative = never retry).
func WithOverloadRetries(n int) Option { return func(o *Options) { o.OverloadRetries = n } }

// WithShards partitions every generated survey archive into n
// trixel-range shards, each served by its own SkyNode. Results are
// bit-identical at every shard count.
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithReplicas adds n read-replica followers per shard; queries prefer
// followers and fail over between replicas.
func WithReplicas(n int) Option { return func(o *Options) { o.Replicas = n } }

// WithCountProbeOrder reverts chain ordering to the pure count-star rule
// of §5.3.
func WithCountProbeOrder() Option { return func(o *Options) { o.CountProbeOrder = true } }

// WithPortalEvents installs a portal trace-event sink.
func WithPortalEvents(fn func(kind, detail string)) Option {
	return func(o *Options) { o.PortalEvents = fn }
}

// WithNodeEvents installs a node trace-event sink.
func WithNodeEvents(fn func(node, kind, detail string)) Option {
	return func(o *Options) { o.NodeEvents = fn }
}

// DialOption configures the client returned by Dial.
type DialOption func(*Client)

// WithHTTPClient makes the client use the given *http.Client — including
// its Timeout — for every call.
func WithHTTPClient(h *http.Client) DialOption {
	return func(c *Client) { c.SOAP.HTTPClient = h }
}

// WithClientCodec selects the client's wire codec (CodecXML keeps the
// paper-faithful XML wire; the default negotiates binary columnar).
func WithClientCodec(codec Codec) DialOption {
	return func(c *Client) { c.SOAP.Codec = codec }
}

// WithClientTimeout bounds each call end to end (ignored when
// WithHTTPClient is also given — the http.Client owns deadlines then).
func WithClientTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.SOAP.Timeout = d }
}

// WithClientRetries sets how many times an overload-shed call is retried
// (negative = never).
func WithClientRetries(n int) DialOption {
	return func(c *Client) { c.SOAP.MaxRetries = n }
}
