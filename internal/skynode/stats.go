package skynode

import (
	"encoding/xml"
	"fmt"

	"skyquery/internal/eval"
	"skyquery/internal/plan"
	"skyquery/internal/soap"
	"skyquery/internal/sqlparse"
	"skyquery/internal/stats"
	"skyquery/internal/value"
)

// ActionStats is the SOAPAction of the StatsSummary service. It is
// negotiated like the response codec: a Portal probes it, and a node
// predating the service answers with the standard unknown-action client
// fault, which the Portal converts into the count-star fallback.
const ActionStats = "urn:skyquery:StatsSummary"

// StatsRequest is the planner's statistics probe: estimate how many of
// the table's rows survive the AREA and the archive-local predicate,
// from the spatial index and maintained column statistics alone — no row
// is read.
type StatsRequest struct {
	XMLName    xml.Name  `xml:"StatsSummary"`
	Table      string    `xml:"table,attr"`
	Alias      string    `xml:"alias,attr"`
	LocalWhere string    `xml:"LocalWhere,omitempty"`
	Area       plan.Area `xml:"Area"`
}

// StatsResponse is the node's estimate. HasStats false means the store
// predates maintained column statistics (its footer has none); the
// caller should fall back to a count-star performance query.
type StatsResponse struct {
	XMLName     xml.Name `xml:"StatsSummaryResponse"`
	TableRows   int64    `xml:"tableRows,attr"`
	AreaRows    int64    `xml:"areaRows,attr"`
	EstRows     float64  `xml:"estRows,attr"`
	Selectivity float64  `xml:"selectivity,attr"`
	HasStats    bool     `xml:"hasStats,attr"`
}

func (n *Node) handleStats(r *soap.Request) (interface{}, error) {
	var req StatsRequest
	if err := r.Decode(&req); err != nil {
		return nil, err
	}
	table, ok := n.cfg.DB.Table(req.Table)
	if !ok {
		return nil, fmt.Errorf("skynode %s: no table %q", n.cfg.Name, req.Table)
	}
	rows := int64(table.RowCount())
	summaries := table.ColumnStats()
	if summaries == nil {
		// A store recovered from a pre-statistics footer: its history is
		// unknown, so it never claims statistics — only fresh ingest
		// (or a rebuilt store) does.
		n.emit("stats.summary", "table %s: no column statistics", req.Table)
		return &StatsResponse{TableRows: rows}, nil
	}
	reg, err := req.Area.Region()
	if err != nil {
		return nil, fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	areaCand, err := table.CountRegionCandidates(reg)
	if err != nil {
		return nil, fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	sel := 1.0
	if req.LocalWhere != "" {
		expr, err := sqlparse.ParseExpr(req.LocalWhere)
		if err != nil {
			return nil, fmt.Errorf("skynode %s: local predicate %q: %w", n.cfg.Name, req.LocalWhere, err)
		}
		schema := table.Schema()
		ps := eval.AnalyzePrune(expr, table.Layout(req.Alias),
			func(s int) value.Type { return schema[s].Type })
		sel = stats.Selectivity(ps.Pruners, func(ci int) *stats.ColSummary {
			if ci < 0 || ci >= len(summaries) {
				return nil
			}
			return summaries[ci]
		})
	}
	est := float64(areaCand) * sel
	n.emit("stats.summary", "table %s: area=%d sel=%.3f est=%.0f",
		req.Table, areaCand, sel, est)
	return &StatsResponse{
		TableRows:   rows,
		AreaRows:    int64(areaCand),
		EstRows:     est,
		Selectivity: sel,
		HasStats:    true,
	}, nil
}
