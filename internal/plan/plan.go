// Package plan defines the federated query execution plan of §5.3: "an
// ordered set of spatial queries", each paired with the SkyNode that will
// execute it. The Portal builds a Plan from the parsed query plus the
// count-star estimates, and ships it as the single parameter of the
// daisy-chained CrossMatch SOAP calls.
//
// Steps are stored in *call* order: the Portal invokes Steps[0], which
// invokes Steps[1], and so on. Execution then unwinds in reverse — the
// last step runs its query first and partial results flow back up the
// chain. The paper's ordering rule therefore places drop-out archives at
// the *beginning* of the list (so they execute last, after all mandatory
// archives are folded in) and sorts mandatory archives by decreasing
// count-star value (so the smallest archive seeds the chain).
package plan

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"

	"skyquery/internal/sphere"
)

// Step is one archive's part of the plan.
type Step struct {
	// Archive is the registered SkyNode name (e.g. "SDSS").
	Archive string `xml:"archive,attr"`
	// Alias is the table alias the user query bound to this archive.
	Alias string `xml:"alias,attr"`
	// Endpoint is the SkyNode's SOAP URL.
	Endpoint string `xml:"endpoint,attr"`
	// Table is the table queried at this node.
	Table string `xml:"table,attr"`
	// LocalWhere is the node-local predicate in dialect syntax ("" if none).
	LocalWhere string `xml:"LocalWhere,omitempty"`
	// CrossWhere lists cross-archive predicates (dialect syntax) that
	// become evaluable once this step's columns are available.
	CrossWhere []string `xml:"CrossWhere>Predicate,omitempty"`
	// Columns are the columns this archive must attach to surviving
	// tuples (select-list plus cross-predicate columns).
	Columns []string `xml:"Columns>Column,omitempty"`
	// SigmaArcsec is the archive's positional error, from its
	// Information service.
	SigmaArcsec float64 `xml:"sigma,attr"`
	// DropOut marks the archive as negated in the XMATCH clause.
	DropOut bool `xml:"dropout,attr,omitempty"`
	// Count is the count-star bound returned by the performance query.
	Count int64 `xml:"count,attr"`
	// EstRows is the planner's estimate of this step's surviving
	// candidates after AREA and local-predicate pruning: the StatsSummary
	// histogram estimate when StatsBased, else the count-star bound.
	EstRows float64 `xml:"estRows,attr,omitempty"`
	// StatsBased marks EstRows as derived from column statistics (the
	// StatsSummary service) rather than a count-star probe.
	StatsBased bool `xml:"statsBased,attr,omitempty"`
	// Cost is the planner's transfer-cost estimate for the step:
	// EstRows x RowBytes / observed per-host throughput (seconds when
	// throughput was measured, relative bytes otherwise). Zero when the
	// plan was ordered by the count-star rule alone.
	Cost float64 `xml:"cost,attr,omitempty"`
}

// RowBytes estimates the wire width of one of the step's tuples: the
// per-row transfer volume its columns add to the partial result. A
// coarse model (framing plus a fixed per-column width) — the planner
// only compares these across steps, so the scale cancels.
func (s *Step) RowBytes() float64 {
	return 24 + 12*float64(len(s.Columns))
}

// CostOf is the planner's transfer-cost model: estimated surviving
// rows times per-row bytes, divided by the observed throughput of the
// node's path (bytes/sec; pass 1 when unknown to fall back to relative
// byte volume).
func CostOf(s *Step, throughputBps float64) float64 {
	if throughputBps <= 0 {
		throughputBps = 1
	}
	est := s.EstRows
	if est <= 0 {
		est = float64(s.Count)
	}
	if est < 1 {
		est = 1 // a step is never free: the call itself moves bytes
	}
	return est * s.RowBytes() / throughputBps
}

// ThroughputNoiseBand is the factor within which two measured path
// throughputs are considered equal. Loopback and LAN measurements
// scatter by small integer factors from scheduling and GC noise alone;
// only differences beyond this band say something about topology.
const ThroughputNoiseBand = 4.0

// EffectiveThroughputs normalizes measured per-step throughputs for the
// cost model: every path within ThroughputNoiseBand of the fastest is
// priced at the fastest (noise does not re-order chains), slower paths
// keep their measured value, and unmeasured paths (0) stay 0 for the
// caller to substitute. The slice is modified in place and returned.
func EffectiveThroughputs(thr []float64) []float64 {
	max := 0.0
	for _, t := range thr {
		if t > max {
			max = t
		}
	}
	if max == 0 {
		return thr
	}
	for i, t := range thr {
		if t > 0 && t*ThroughputNoiseBand >= max {
			thr[i] = max
		}
	}
	return thr
}

// Area mirrors the AREA clause; the radius stays in arc seconds as
// written. A non-empty Vertices list selects the polygon extension.
type Area struct {
	RA           float64  `xml:"ra,attr,omitempty"`
	Dec          float64  `xml:"dec,attr,omitempty"`
	RadiusArcsec float64  `xml:"radius,attr,omitempty"`
	Vertices     []Vertex `xml:"Vertex,omitempty"`
}

// Vertex is one polygon corner in degrees.
type Vertex struct {
	RA  float64 `xml:"ra,attr"`
	Dec float64 `xml:"dec,attr"`
}

// IsPolygon reports whether the area uses the polygon extension.
func (a Area) IsPolygon() bool { return len(a.Vertices) > 0 }

// Region materializes the area as a spherical region.
func (a Area) Region() (sphere.Region, error) {
	if !a.IsPolygon() {
		if a.RadiusArcsec <= 0 {
			return nil, fmt.Errorf("plan: area radius must be positive, got %v", a.RadiusArcsec)
		}
		return sphere.NewCap(a.RA, a.Dec, sphere.Arcsec(a.RadiusArcsec)), nil
	}
	pts := make([][2]float64, len(a.Vertices))
	for i, v := range a.Vertices {
		pts[i] = [2]float64{v.RA, v.Dec}
	}
	poly, err := sphere.NewPolygon(pts...)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return poly, nil
}

// Plan is the complete federated execution plan.
type Plan struct {
	XMLName xml.Name `xml:"Plan"`
	// QueryID tags the plan for tracing across nodes.
	QueryID string `xml:"id,attr"`
	// Threshold is the XMATCH threshold in standard deviations.
	Threshold float64 `xml:"threshold,attr"`
	// Area is the sky region of the query.
	Area Area `xml:"Area"`
	// SelectList holds the query's projected expressions in dialect
	// syntax, evaluated by the Portal on the final tuples.
	SelectList []string `xml:"Select>Item"`
	// Steps in call order (Steps[0] is invoked by the Portal).
	Steps []Step `xml:"Steps>Step"`
	// ChunkRows bounds rows per SOAP message for partial-result
	// transfers; 0 disables chunking.
	ChunkRows int `xml:"chunkRows,attr,omitempty"`
	// Parallelism is the Portal's worker-count hint for each node's chain
	// step. A node honors it unless its own configuration overrides it;
	// 0 leaves the choice to the node (GOMAXPROCS), 1 forces the
	// sequential path.
	Parallelism int `xml:"parallelism,attr,omitempty"`
}

// StepIndex returns the position of the step for the given archive, or -1.
func (p *Plan) StepIndex(archive string) int {
	for i, s := range p.Steps {
		if s.Archive == archive {
			return i
		}
	}
	return -1
}

// Next returns the step after the given archive in call order, or nil if
// the archive is last (it seeds the chain).
func (p *Plan) Next(archive string) *Step {
	i := p.StepIndex(archive)
	if i < 0 || i+1 >= len(p.Steps) {
		return nil
	}
	return &p.Steps[i+1]
}

// Validate checks structural invariants of the plan.
func (p *Plan) Validate() error {
	if len(p.Steps) == 0 {
		return fmt.Errorf("plan: no steps")
	}
	if p.Threshold <= 0 {
		return fmt.Errorf("plan: threshold must be positive, got %v", p.Threshold)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("plan: parallelism must be non-negative, got %d", p.Parallelism)
	}
	if _, err := p.Area.Region(); err != nil {
		return err
	}
	seen := map[string]bool{}
	mandatory := 0
	for i, s := range p.Steps {
		if s.Archive == "" || s.Endpoint == "" || s.Table == "" {
			return fmt.Errorf("plan: step %d incomplete: %+v", i, s)
		}
		if seen[s.Archive] {
			return fmt.Errorf("plan: archive %q appears twice", s.Archive)
		}
		seen[s.Archive] = true
		if s.SigmaArcsec <= 0 {
			return fmt.Errorf("plan: step %d (%s) needs a positive sigma", i, s.Archive)
		}
		if !s.DropOut {
			mandatory++
		}
	}
	if mandatory == 0 {
		return fmt.Errorf("plan: no mandatory archives")
	}
	// The last step must be mandatory: a drop-out cannot seed the chain
	// (there would be nothing to veto).
	if p.Steps[len(p.Steps)-1].DropOut {
		return fmt.Errorf("plan: a drop-out archive cannot be last in call order")
	}
	// A veto carries none of the archive's columns forward, so a drop-out
	// step has nothing to evaluate a cross-archive predicate against.
	for i, s := range p.Steps {
		if s.DropOut && len(s.CrossWhere) > 0 {
			return fmt.Errorf("plan: drop-out step %d (%s) cannot carry cross predicates", i, s.Archive)
		}
	}
	return nil
}

// Order sorts steps into the paper's call order: drop-out archives first,
// then mandatory archives by decreasing Count (ties broken by name for
// determinism). Within drop-outs the same decreasing-count rule applies.
func Order(steps []Step) []Step {
	out := append([]Step(nil), steps...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].DropOut != out[j].DropOut {
			return out[i].DropOut
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Archive < out[j].Archive
	})
	return out
}

// OrderByCost is Order with the cost model as the sort key: drop-outs
// still lead the call order (they execute last, after every mandatory
// fold), and within each group steps sort by decreasing Cost so the
// cheapest transfer seeds the chain. Ties fall back to the count rule,
// then the name rule, keeping the order total and deterministic.
func OrderByCost(steps []Step) []Step {
	out := append([]Step(nil), steps...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].DropOut != out[j].DropOut {
			return out[i].DropOut
		}
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Archive < out[j].Archive
	})
	return out
}

// Marshal serializes the plan to XML for transport inside SOAP calls.
func (p *Plan) Marshal() ([]byte, error) {
	out, err := xml.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("plan: marshal: %w", err)
	}
	return out, nil
}

// Unmarshal parses a plan serialized with Marshal.
func Unmarshal(data []byte) (*Plan, error) {
	var p Plan
	if err := xml.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("plan: unmarshal: %w", err)
	}
	return &p, nil
}

// String renders a compact human-readable summary used in traces:
//
//	FIRST(dropout,count=120) -> SDSS(count=5000,est=3210,cost=1.2e+05) -> TWOMASS(count=800)
func (p *Plan) String() string {
	var parts []string
	for _, s := range p.Steps {
		attrs := []string{fmt.Sprintf("count=%d", s.Count)}
		if s.StatsBased {
			attrs = append(attrs, fmt.Sprintf("est=%.0f", s.EstRows))
		}
		if s.Cost > 0 {
			attrs = append(attrs, fmt.Sprintf("cost=%.3g", s.Cost))
		}
		if s.DropOut {
			attrs = append([]string{"dropout"}, attrs...)
		}
		parts = append(parts, fmt.Sprintf("%s(%s)", s.Archive, strings.Join(attrs, ",")))
	}
	return strings.Join(parts, " -> ")
}
