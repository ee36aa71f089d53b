package core

// Execution. Every query runs as a page stream: the engine pulls pages
// off the chain's TupleStream as the nodes produce them and projects
// each page through the compiled projector, so the portal's peak memory
// is one page (plus the ORDER BY buffer when the query sorts) and the
// first result rows leave for the client before the chain has finished.
// A caller that needs the whole result drains the stream (Execute,
// dataset.Drain); whether the pages reach a remote client as a stream
// or as parked chunks is decided by that client's Accept.

import (
	"context"

	"skyquery/internal/dataset"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// TupleStream delivers a bulk result page by page (see dataset.Pages).
type TupleStream = dataset.Pages

// ExecutePreparedStream runs a previously prepared query and returns
// the result as a page stream. Cross-match plans run on a copy stamped
// with a fresh query ID; the Prepared itself is never mutated and stays
// valid for further executions.
func (e *Engine) ExecutePreparedStream(ctx context.Context, prep *Prepared) (TupleStream, error) {
	if prep.plan == nil {
		a, local, err := e.passThroughTarget(prep.q)
		if err != nil {
			return nil, err
		}
		e.emit("execute", "pass-through to %s", a.Name)
		return e.Services.TableQueryStream(ctx, a, local)
	}
	pl := *prep.plan
	pl.QueryID = e.queryID()
	e.emit("execute", "chain: %s", &pl)
	ts, err := e.Services.CrossMatchStream(ctx, &pl)
	if err != nil {
		return nil, err
	}
	return e.projectStream(prep.q, ts)
}

// projectStream projects the tuple pages of src into result pages.
func (e *Engine) projectStream(q *sqlparse.Query, src TupleStream) (TupleStream, error) {
	pr, err := e.newProjector(q, src.Columns())
	if err != nil {
		src.Close()
		return nil, err
	}
	return &projectStream{e: e, q: q, src: src, pr: pr}, nil
}

// projectStream pulls tuple pages off the chain stream and projects
// each one as it arrives.
type projectStream struct {
	e   *Engine
	q   *sqlparse.Query
	src TupleStream
	pr  *projector

	rows     int
	finished bool
	err      error
	closed   bool
}

// Columns returns the projected result schema.
func (s *projectStream) Columns() []dataset.Column { return s.pr.outCols }

// Next returns the next page of result rows, or (nil, nil) after the
// last one. Pages that project to nothing (COUNT and ORDER BY buffer
// until the end; a veto-heavy page may be empty) are skipped, not
// surfaced as empty pages.
func (s *projectStream) Next() ([][]value.Value, error) {
	if s.err != nil {
		return nil, s.err
	}
	for !s.finished {
		if !s.pr.needMore() {
			// Plain TOP satisfied: abandon the rest of the chain's
			// transfer rather than draining it.
			return s.finish(true)
		}
		page, err := s.src.Next()
		if err != nil {
			s.fail(err)
			return nil, s.err
		}
		if page == nil {
			return s.finish(false)
		}
		out, err := s.pr.page(page)
		if err != nil {
			s.fail(err)
			return nil, s.err
		}
		if len(out) > 0 {
			s.rows += len(out)
			return out, nil
		}
	}
	return nil, nil
}

// finish drains the projector's held-back rows (COUNT row, sorted ORDER
// BY buffer) and emits the relay event.
func (s *projectStream) finish(abandon bool) ([][]value.Value, error) {
	s.finished = true
	if abandon {
		s.src.Close()
	}
	tail, err := s.pr.finish(s.q.OrderBy)
	if err != nil {
		s.fail(err)
		return nil, s.err
	}
	s.rows += len(tail)
	s.e.emit("relay", "%d rows to client", s.rows)
	if len(tail) > 0 {
		return tail, nil
	}
	return nil, nil
}

// fail records err and releases the stream's resources.
func (s *projectStream) fail(err error) {
	s.err = err
	s.src.Close()
	s.release()
}

// Close abandons the stream; safe after exhaustion and idempotent.
func (s *projectStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.src.Close()
	s.release()
	return nil
}

func (s *projectStream) release() {
	if s.pr != nil {
		s.pr.close()
	}
}

// SliceStream adapts a materialized data set to the TupleStream shape,
// re-paged at chunkRows rows: the sharded chain's merged result, which
// the portal coordinates whole, leaves through one.
type SliceStream struct {
	cols  []dataset.Column
	rows  [][]value.Value
	chunk int
	off   int
}

// NewSliceStream wraps ds as a TupleStream of chunkRows-row pages.
func NewSliceStream(ds *dataset.DataSet, chunkRows int) *SliceStream {
	if chunkRows <= 0 {
		chunkRows = 5000
	}
	return &SliceStream{cols: ds.Columns, rows: ds.Rows, chunk: chunkRows}
}

// Columns returns the schema.
func (s *SliceStream) Columns() []dataset.Column { return s.cols }

// Next returns the next page, or (nil, nil) when exhausted.
func (s *SliceStream) Next() ([][]value.Value, error) {
	if s.off >= len(s.rows) {
		return nil, nil
	}
	end := min(s.off+s.chunk, len(s.rows))
	page := s.rows[s.off:end]
	s.off = end
	return page, nil
}

// Close implements TupleStream.
func (s *SliceStream) Close() error { return nil }
