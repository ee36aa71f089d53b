package skynode

import (
	"context"
	"encoding/xml"
	"fmt"

	"skyquery/internal/dataset"
	"skyquery/internal/plan"
	"skyquery/internal/soap"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// InformationRequest asks for the archive constants (§5.1: "astronomy
// specific constants of that SkyNode such as the object position
// estimation errors, the name of primary table ...").
type InformationRequest struct {
	XMLName xml.Name `xml:"Information"`
}

// InformationResponse carries the archive constants.
type InformationResponse struct {
	XMLName      xml.Name `xml:"InformationResponse"`
	Name         string   `xml:"name,attr"`
	SigmaArcsec  float64  `xml:"sigma,attr"`
	PrimaryTable string   `xml:"primaryTable,attr"`
	RACol        string   `xml:"raCol,attr"`
	DecCol       string   `xml:"decCol,attr"`
	ObjectCount  int64    `xml:"objectCount,attr"`
	SpatialLevel int      `xml:"spatialLevel,attr"`
}

// MetadataRequest asks for complete schema information.
type MetadataRequest struct {
	XMLName xml.Name `xml:"Metadata"`
}

// ColumnMeta describes one column.
type ColumnMeta struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
}

// TableMeta describes one table.
type TableMeta struct {
	Name    string       `xml:"name,attr"`
	Rows    int64        `xml:"rows,attr"`
	Spatial bool         `xml:"spatial,attr"`
	Columns []ColumnMeta `xml:"Column"`
}

// MetadataResponse carries the full catalog.
type MetadataResponse struct {
	XMLName xml.Name    `xml:"MetadataResponse"`
	Tables  []TableMeta `xml:"Table"`
}

// QueryRequest is the general-purpose query service request: a query in
// the SkyQuery dialect restricted to this node's tables.
type QueryRequest struct {
	XMLName xml.Name `xml:"Query"`
	SQL     string   `xml:"SQL"`
}

// CrossMatchRequest carries the federated execution plan.
type CrossMatchRequest struct {
	XMLName xml.Name  `xml:"CrossMatch"`
	Plan    plan.Plan `xml:"Plan"`
	// Isolated tells the node to execute only its own chain step: the
	// step's incoming tuples come from Incoming (absent for a seed step)
	// instead of a chain call to the next step's node. The portal's
	// scatter tier sets it when any archive in the plan is sharded — the
	// portal becomes the coordinator between steps, merging shard outputs
	// deterministically.
	Isolated bool `xml:"isolated,attr,omitempty"`
	// Incoming locates the step's input tuples: a transfer stashed in
	// the coordinator's ChunkStore, drained by token from Endpoint.
	Incoming *IncomingRef `xml:"Incoming,omitempty"`
}

// IncomingRef points a chain step at its stashed incoming tuples.
type IncomingRef struct {
	Endpoint string `xml:"endpoint,attr"`
	Token    string `xml:"token,attr"`
}

func (n *Node) handleInformation(r *soap.Request) (interface{}, error) {
	var req InformationRequest
	if err := r.Decode(&req); err != nil {
		return nil, err
	}
	primary, _ := n.cfg.DB.Table(n.cfg.PrimaryTable)
	return &InformationResponse{
		Name:         n.cfg.Name,
		SigmaArcsec:  n.cfg.SigmaArcsec,
		PrimaryTable: n.cfg.PrimaryTable,
		RACol:        n.cfg.RACol,
		DecCol:       n.cfg.DecCol,
		ObjectCount:  int64(primary.RowCount()),
		SpatialLevel: primary.SpatialLevel(),
	}, nil
}

func (n *Node) handleMetadata(r *soap.Request) (interface{}, error) {
	var req MetadataRequest
	if err := r.Decode(&req); err != nil {
		return nil, err
	}
	resp := &MetadataResponse{}
	for _, name := range n.cfg.DB.Names() {
		t, ok := n.cfg.DB.Table(name)
		if !ok {
			continue
		}
		tm := TableMeta{Name: name, Rows: int64(t.RowCount()), Spatial: t.HasSpatial()}
		for _, c := range t.Schema() {
			tm.Columns = append(tm.Columns, ColumnMeta{Name: c.Name, Type: c.Type.String()})
		}
		resp.Tables = append(resp.Tables, tm)
	}
	return resp, nil
}

func (n *Node) handleQuery(r *soap.Request) (interface{}, error) {
	var req QueryRequest
	if err := r.Decode(&req); err != nil {
		return nil, err
	}
	q, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return nil, fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	release, err := n.admit(0)
	if err != nil {
		return nil, err
	}
	res, err := n.cfg.DB.Execute(q)
	release()
	if err != nil {
		return nil, fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	n.queriesServed.Add(1)
	n.emit("query", "%d rows for %q", len(res.Rows), req.SQL)
	ds := resultToDataSet(res)
	return n.chunks.Reply(r, n.cfg.ChunkRows, func(sw *soap.StreamWriter) error {
		if err := sw.Schema(ds.Columns); err != nil {
			return err
		}
		return writePaged(sw, ds.Rows, n.cfg.ChunkRows)
	})
}

// writePaged emits rows to the stream in pages of at most chunkRows.
func writePaged(sw *soap.StreamWriter, rows [][]value.Value, chunkRows int) error {
	for off := 0; off < len(rows); off += chunkRows {
		end := off + chunkRows
		if end > len(rows) {
			end = len(rows)
		}
		if err := sw.Page(rows[off:end]); err != nil {
			return err
		}
	}
	return nil
}

func (n *Node) handleCrossMatch(r *soap.Request) (interface{}, error) {
	var req CrossMatchRequest
	if err := r.Decode(&req); err != nil {
		return nil, err
	}
	p := &req.Plan
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	idx := p.StepIndex(n.cfg.Name)
	if idx < 0 {
		return nil, fmt.Errorf("skynode %s: not part of plan %s", n.cfg.Name, p.QueryID)
	}
	step := p.Steps[idx]
	n.emit("xmatch.recv", "plan %s step %d/%d", p.QueryID, idx+1, len(p.Steps))
	chunkRows := p.ChunkRows
	if chunkRows == 0 {
		chunkRows = n.cfg.ChunkRows
	}
	ctx := r.Context()
	return n.chunks.Reply(r, chunkRows, func(sw *soap.StreamWriter) error {
		in, from, err := n.openIncoming(ctx, &req)
		if err != nil {
			return err
		}
		if in != nil {
			defer in.Close()
		}
		return n.chainStep(p, step, in, from, chunkRows, sw)
	})
}

// openIncoming opens the step's incoming partial tuples as a page
// stream: the coordinator's stash for an isolated step, the next chain
// node otherwise, and nothing (nil) for a seed step. from names the
// source for error messages.
func (n *Node) openIncoming(ctx context.Context, req *CrossMatchRequest) (in dataset.Pages, from string, err error) {
	if req.Isolated {
		if req.Incoming == nil {
			return nil, "", nil
		}
		n.emit("xmatch.incoming", "stashed at %s", req.Incoming.Endpoint)
		st, err := soap.OpenStash(ctx, n.client, req.Incoming.Endpoint, req.Incoming.Token)
		if err != nil {
			return nil, "", fmt.Errorf("skynode %s: fetch incoming: %w", n.cfg.Name, err)
		}
		return st, "stash at " + req.Incoming.Endpoint, nil
	}
	next := req.Plan.Next(n.cfg.Name)
	if next == nil {
		return nil, "", nil
	}
	n.emit("xmatch.forward", "-> %s", next.Archive)
	st, err := soap.OpenStream(ctx, n.client, next.Endpoint, ActionCrossMatch, &CrossMatchRequest{Plan: req.Plan})
	if err != nil {
		return nil, "", fmt.Errorf("skynode %s: chain call to %s: %w", n.cfg.Name, next.Archive, err)
	}
	return st, next.Archive, nil
}

// chainStep runs this node's step of the cross match over the incoming
// pages, or — for the seed step (in == nil) — once over the AREA. Every
// page runs through one compiled stepRunner, and the output is written
// re-paged at chunkRows rows: an extend step can amplify one incoming
// page arbitrarily, so output paging cannot mirror input paging. The
// step holds the page in flight and its output, not the tuple set;
// whether sw streams the pages or parks them as chunks is the caller's
// choice (soap.ChunkStore.Reply). A mandatory archive extends each
// tuple with every nearby candidate that keeps the chi-square within
// threshold; a drop-out archive vetoes tuples that have such a
// candidate and passes the rest through unchanged.
func (n *Node) chainStep(p *plan.Plan, step plan.Step, in dataset.Pages, from string, chunkRows int, sw *soap.StreamWriter) error {
	var inCols []dataset.Column
	if in != nil {
		inCols = in.Columns()
	}
	r, err := n.newStepRunner(p, step, inCols)
	if err != nil {
		return fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	defer r.close()
	var pending [][]value.Value
	if in == nil {
		// The seed search is one local computation with no input to
		// page; its schema goes out only once it has succeeded.
		n.emit("xmatch.seed", "table %s", step.Table)
		if pending, err = n.runPage(r, nil); err != nil {
			return err
		}
		n.observeSeedEstimate(step, len(pending))
	}
	if err := sw.Schema(r.outCols); err != nil {
		return err
	}
	if in != nil {
		tuplesIn := 0
		for {
			page, err := in.Next()
			if err != nil {
				return fmt.Errorf("skynode %s: read from %s: %w", n.cfg.Name, from, err)
			}
			if page == nil {
				break
			}
			tuplesIn += len(page)
			n.tuplesIn.Add(int64(len(page)))
			out, err := n.runPage(r, page)
			if err != nil {
				return err
			}
			pending = append(pending, out...)
			if full := len(pending) / chunkRows * chunkRows; full > 0 {
				if err := writePaged(sw, pending[:full], chunkRows); err != nil {
					return err
				}
				// Copy the tail so written pages' row headers are not
				// pinned by the pending slice's backing array.
				pending = append([][]value.Value(nil), pending[full:]...)
			}
		}
		if step.DropOut {
			n.emit("xmatch.dropout", "%d tuples in", tuplesIn)
		} else {
			n.emit("xmatch.step", "%d tuples in", tuplesIn)
		}
	}
	if err := writePaged(sw, pending, chunkRows); err != nil {
		return err
	}
	n.tuplesOut.Add(int64(sw.Rows()))
	n.emit("xmatch.return", "%d tuples", sw.Rows())
	return nil
}

// runPage charges admission for one in-flight page — its real
// estimated bytes, not a whole-set guess — and holds the weight only
// across the local compute, never across a network wait. A shed comes
// back as the unwrapped Overloaded fault, so a parked reply keeps it
// retryable.
func (n *Node) runPage(r *stepRunner, page [][]value.Value) ([][]value.Value, error) {
	release, err := n.admit(estimateRowsBytes(page))
	if err != nil {
		return nil, err
	}
	defer release()
	out, err := r.run(page)
	if err != nil {
		return nil, fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	return out, nil
}
