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
	defer release()
	res, err := n.cfg.DB.Execute(q)
	if err != nil {
		return nil, fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	n.queriesServed.Add(1)
	n.emit("query", "%d rows for %q", len(res.Rows), req.SQL)
	ds := resultToDataSet(res)
	if r.WantsStream() {
		// Stream the materialized result page by page instead of parking
		// tail chunks: nothing waits in the ChunkStore and the caller
		// holds one page at a time.
		return &soap.ChunkedStream{Run: func(sw *soap.StreamWriter) error {
			if err := sw.Schema(ds.Columns); err != nil {
				return err
			}
			return writePaged(sw, ds.Rows, n.cfg.ChunkRows)
		}}, nil
	}
	return n.chunks.Respond(ds, n.cfg.ChunkRows), nil
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
	// An isolated step's input is already folded in the coordinator's
	// stash, so it always answers with the parked-chunk response, which
	// soap.OpenStream consumes through its buffered fallback.
	if r.WantsStream() && !req.Isolated {
		return n.crossMatchStream(ctx, p, step, chunkRows), nil
	}

	incoming, err := n.stepIncoming(ctx, &req, p)
	if err != nil {
		return nil, err
	}

	// Admission sits after the downstream fetch on purpose: a slot held
	// across the chain's network wait would let one slow downstream node
	// pin this node's whole budget, and since each node gates only its
	// own local step there is no lock-ordering cycle across the chain.
	release, err := n.admit(estimateDataSetBytes(incoming))
	if err != nil {
		return nil, err
	}
	defer release()
	out, err := n.localStep(p, step, incoming)
	if err != nil {
		return nil, fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	n.tuplesOut.Add(int64(out.NumRows()))
	n.emit("xmatch.return", "%d tuples", out.NumRows())
	return n.chunks.Respond(out, chunkRows), nil
}

// stepIncoming materializes the folded path's incoming tuples: fetched
// from the coordinator's stash in isolated mode, pulled from the next
// chain node otherwise. Seed steps (no downstream, no stash) get nil.
func (n *Node) stepIncoming(ctx context.Context, req *CrossMatchRequest, p *plan.Plan) (*dataset.DataSet, error) {
	if req.Isolated {
		if req.Incoming == nil {
			return nil, nil
		}
		n.emit("xmatch.incoming", "stashed at %s", req.Incoming.Endpoint)
		ds, err := soap.FetchToken(ctx, n.client, req.Incoming.Endpoint, req.Incoming.Token)
		if err != nil {
			return nil, fmt.Errorf("skynode %s: fetch incoming: %w", n.cfg.Name, err)
		}
		n.tuplesIn.Add(int64(ds.NumRows()))
		return ds, nil
	}
	next := p.Next(n.cfg.Name)
	if next == nil {
		return nil, nil
	}
	n.emit("xmatch.forward", "-> %s", next.Archive)
	var first soap.ChunkedData
	if err := n.client.Call(ctx, next.Endpoint, ActionCrossMatch, &CrossMatchRequest{Plan: *p}, &first); err != nil {
		return nil, fmt.Errorf("skynode %s: chain call to %s: %w", n.cfg.Name, next.Archive, err)
	}
	ds, err := soap.FetchAll(ctx, n.client, next.Endpoint, &first)
	if err != nil {
		return nil, fmt.Errorf("skynode %s: fetch from %s: %w", n.cfg.Name, next.Archive, err)
	}
	n.tuplesIn.Add(int64(ds.NumRows()))
	return ds, nil
}

// crossMatchStream is the page-at-a-time form of the chain step: the
// downstream node's partial tuples are consumed as each page arrives,
// every page runs through the same compiled stepRunner as the folded
// path (which is what keeps the two wires bit-identical), and the
// extended tuples are re-paged to the caller at chunkRows rows — an
// extend step can amplify one incoming page arbitrarily, so output
// paging cannot simply mirror input paging. Peak memory here is the
// in-flight page plus its output, not the tuple set. Failures after
// the first byte has been written cannot become SOAP faults any more;
// they travel in-band as columnar error frames and surface to the
// consumer as a typed *dataset.StreamError.
func (n *Node) crossMatchStream(ctx context.Context, p *plan.Plan, step plan.Step, chunkRows int) *soap.ChunkedStream {
	return &soap.ChunkedStream{Run: func(sw *soap.StreamWriter) error {
		next := p.Next(n.cfg.Name)
		if next == nil {
			return n.seedStream(p, step, chunkRows, sw)
		}
		n.emit("xmatch.forward", "-> %s", next.Archive)
		st, err := soap.OpenStream(ctx, n.client, next.Endpoint, ActionCrossMatch, &CrossMatchRequest{Plan: *p})
		if err != nil {
			return fmt.Errorf("skynode %s: chain call to %s: %w", n.cfg.Name, next.Archive, err)
		}
		defer st.Close()
		r, err := n.newStepRunner(p, step, st.Columns())
		if err != nil {
			return fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
		}
		defer r.close()
		if step.DropOut {
			n.emit("xmatch.dropout", "streaming pages")
		} else {
			n.emit("xmatch.step", "streaming pages")
		}
		if err := sw.Schema(r.outCols); err != nil {
			return err
		}
		var pending [][]value.Value
		for {
			page, err := st.Next()
			if err != nil {
				return fmt.Errorf("skynode %s: stream from %s: %w", n.cfg.Name, next.Archive, err)
			}
			if page == nil {
				break
			}
			n.tuplesIn.Add(int64(len(page)))
			out, err := n.runPage(r, page)
			if err != nil {
				return fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
			}
			pending = append(pending, out...)
			for len(pending) >= chunkRows {
				if err := sw.Page(pending[:chunkRows:chunkRows]); err != nil {
					return err
				}
				// Copy the tail so written pages' row headers are not
				// pinned by the pending slice's backing array.
				rest := make([][]value.Value, len(pending)-chunkRows)
				copy(rest, pending[chunkRows:])
				pending = rest
			}
		}
		if err := sw.Page(pending); err != nil {
			return err
		}
		n.tuplesOut.Add(int64(sw.Rows()))
		n.emit("xmatch.return", "%d tuples streamed", sw.Rows())
		return nil
	}}
}

// seedStream emits the seed step's 1-tuples in pages. The seed search
// itself is one local computation (there is no upstream to stream
// from), so admission is charged once around it and released before
// the pages go out on the wire.
func (n *Node) seedStream(p *plan.Plan, step plan.Step, chunkRows int, sw *soap.StreamWriter) error {
	r, err := n.newStepRunner(p, step, nil)
	if err != nil {
		return fmt.Errorf("skynode %s: %w", n.cfg.Name, err)
	}
	defer r.close()
	release, err := n.admit(0)
	if err != nil {
		return err
	}
	n.emit("xmatch.seed", "table %s", step.Table)
	rows, seedErr := r.seed()
	release()
	if seedErr != nil {
		return fmt.Errorf("skynode %s: %w", n.cfg.Name, seedErr)
	}
	n.observeSeedEstimate(step, len(rows))
	if err := sw.Schema(r.outCols); err != nil {
		return err
	}
	if err := writePaged(sw, rows, chunkRows); err != nil {
		return err
	}
	n.tuplesOut.Add(int64(len(rows)))
	n.emit("xmatch.return", "%d tuples streamed", len(rows))
	return nil
}

// runPage charges admission for one in-flight page — its real
// estimated bytes, not a whole-set guess — and holds the weight only
// across the local compute, never across a network wait.
func (n *Node) runPage(r *stepRunner, page [][]value.Value) ([][]value.Value, error) {
	release, err := n.admit(estimateRowsBytes(page))
	if err != nil {
		return nil, err
	}
	defer release()
	return r.run(page)
}
