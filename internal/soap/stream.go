package soap

// Streaming bulk responses. PR 7's columnar wire already frames results
// as self-delimiting pages; this file lets both ends keep the page
// boundary instead of folding it away. A handler returns a ChunkedStream
// whose Run produces pages as the work generates them, and the server
// writes each one to the HTTP response immediately; a caller uses
// OpenStream/PageStream to consume pages as they arrive. A streamed body
// is a valid single-chunk ChunkedData body (SQCH header with an empty
// token), so non-streaming receivers decode it unchanged, and servers
// that answer with buffered chunked responses — or plain XML — degrade
// transparently to chunk-by-chunk fetching. Errors after the stream has
// started travel in-band as columnar error frames (dataset.StreamError).

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"

	"skyquery/internal/dataset"
	"skyquery/internal/value"
)

// streamHeader marks a request whose caller consumes the response page
// by page; handlers only answer with a ChunkedStream when it is present,
// so buffered clients keep getting bounded chunked responses.
const streamHeader = "X-Skyquery-Stream"

// StreamWriter is handed to a ChunkedStream's Run: Schema exactly once,
// then Page per row group. Each page is flushed to the wire as soon as
// it is written.
type StreamWriter struct {
	enc         *dataset.ColumnarEncoder
	flush       func() error
	wroteSchema bool
	rows        int
}

// Schema emits the stream's schema frame. It must be called exactly
// once, before any page.
func (sw *StreamWriter) Schema(cols []dataset.Column) error {
	if sw.wroteSchema {
		return fmt.Errorf("soap: stream schema already written")
	}
	sw.wroteSchema = true
	if err := sw.enc.WriteSchema(cols); err != nil {
		return err
	}
	return sw.flush()
}

// Page emits one row group and flushes it to the caller. Empty pages are
// skipped.
func (sw *StreamWriter) Page(rows [][]value.Value) error {
	if !sw.wroteSchema {
		return fmt.Errorf("soap: stream page before schema")
	}
	if len(rows) == 0 {
		return nil
	}
	sw.rows += len(rows)
	if err := sw.enc.WritePage(rows); err != nil {
		return err
	}
	return sw.flush()
}

// Rows returns how many rows have been written so far.
func (sw *StreamWriter) Rows() int { return sw.rows }

// ChunkedStream is the streaming counterpart of ChunkedData: a response
// produced page by page while the HTTP exchange is open. It implements
// FrameStreamer; handlers return one only when Request.WantsStream
// reports the caller can consume it.
type ChunkedStream struct {
	// Run produces the response: Schema once, then Page per row group.
	// A returned error ends the stream with an in-band error frame that
	// surfaces to the consumer as a typed *dataset.StreamError.
	Run func(w *StreamWriter) error
}

// StreamFrames implements FrameStreamer.
func (cs *ChunkedStream) StreamFrames(w io.Writer) error {
	hdr, err := appendChunkHeader(nil, "", 0, 0)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 32<<10)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	flusher, _ := w.(http.Flusher)
	sw := &StreamWriter{enc: dataset.NewColumnarEncoder(bw)}
	sw.flush = func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	runErr := cs.Run(sw)
	if runErr == nil && !sw.wroteSchema {
		runErr = fmt.Errorf("soap: stream produced no schema")
	}
	if runErr != nil {
		if err := sw.enc.WriteError(runErr.Error()); err != nil {
			return err
		}
		return sw.flush()
	}
	if err := sw.enc.Close(); err != nil {
		return err
	}
	return sw.flush()
}

// WantsStream reports that the caller asked for a page-streamed response
// (and can read the columnar format, which streaming requires).
func (r *Request) WantsStream() bool {
	return r.AcceptsColumnar && r.wantsStream
}

// PageStream consumes a bulk response incrementally: pages of a streamed
// columnar body, or chunk-by-chunk fetches of the buffered fallback —
// either way rows reach the caller before the transfer completes, and
// only one page is materialized at a time.
type PageStream struct {
	c    *Client
	ctx  context.Context
	url  string
	cols []dataset.Column

	body io.ReadCloser // non-nil while draining a streamed body
	dec  *dataset.ColumnarDecoder

	follow *chunkFollower  // chunk fetches owed after body/buf drain
	buf    [][]value.Value // rows already materialized (fallback chunks)

	err    error
	done   bool
	closed bool
}

// OpenStream issues req to url and returns a PageStream over the
// response, whatever shape the server chose: a streamed columnar body, a
// buffered columnar chunked response, or the XML chunked fallback.
func OpenStream(ctx context.Context, c *Client, url, action string, req interface{}) (*PageStream, error) {
	var first ChunkedData
	body, err := c.callForStream(ctx, url, action, req, &first)
	if err != nil {
		return nil, err
	}
	if body == nil {
		// XML fallback: a whole first chunk, the rest by fetch.
		if first.Data == nil {
			return nil, fmt.Errorf("soap: empty chunked response")
		}
		follow, err := newChunkFollower(&first)
		if err != nil {
			return nil, err
		}
		return &PageStream{c: c, ctx: ctx, url: url, cols: first.Data.Columns, buf: first.Data.Rows, follow: follow}, nil
	}
	// Columnar body: an embedded frame stream, possibly (when the server
	// buffered and chunked) with a continuation token for more chunks.
	token, seq, remaining, err := readChunkHeader(body)
	if err != nil {
		body.Close()
		return nil, err
	}
	follow, err := newChunkFollower(&ChunkedData{Token: token, Seq: seq, Remaining: remaining})
	if err != nil {
		body.Close()
		return nil, err
	}
	dec := dataset.NewColumnarDecoder(body)
	cols, err := dec.ReadSchema()
	if err != nil {
		body.Close()
		if follow.token != "" {
			releaseTransfer(c, url, follow.token)
		}
		return nil, err
	}
	return &PageStream{c: c, ctx: ctx, url: url, cols: cols, body: body, dec: dec, follow: follow}, nil
}

// callForStream POSTs req like Call but asks for an incrementally
// consumable response, with the header that tells a streaming-capable
// server to produce pages instead of parking tail chunks. When the server
// answers columnar, the raw body is returned for frame-by-frame decoding
// — the caller owns closing it, and the client's MessageLimit does not
// apply to it (the codec's per-frame caps bound allocations instead).
// When the server answers XML — the fallback — the envelope is decoded
// into resp exactly as Call would and the returned reader is nil.
// Overload sheds retry as in Call; they can only happen before the
// server commits to streaming.
func (c *Client) callForStream(ctx context.Context, url, action string, req, resp interface{}) (io.ReadCloser, error) {
	payload, err := Marshal(req)
	if err != nil {
		return nil, err
	}
	if int64(len(payload)) > c.limit() {
		return nil, &ErrMessageTooLarge{Size: int64(len(payload)), Limit: c.limit()}
	}
	for attempt := 0; ; attempt++ {
		body, err := c.callStreamHdr(ctx, url, action, payload, resp, true)
		if !IsOverloaded(err) || attempt >= c.MaxRetries {
			return body, err
		}
		if err := c.sleepBackoff(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

// Columns returns the stream's schema.
func (ps *PageStream) Columns() []dataset.Column { return ps.cols }

func (ps *PageStream) context() context.Context {
	if ps.ctx != nil {
		return ps.ctx
	}
	return context.Background()
}

// Next returns the next page of rows, or (nil, nil) after the last one.
// The returned slice is owned by the caller. After an error the stream
// is dead and any parked server-side transfer has been released.
func (ps *PageStream) Next() ([][]value.Value, error) {
	if ps.err != nil {
		return nil, ps.err
	}
	if ps.done {
		return nil, nil
	}
	for {
		if len(ps.buf) > 0 {
			rows := ps.buf
			ps.buf = nil
			return rows, nil
		}
		ps.buf = nil
		if ps.body != nil {
			tmp := dataset.DataSet{Columns: ps.cols}
			n, err := ps.dec.ReadPage(&tmp)
			if err != nil {
				ps.fail(err)
				return nil, ps.err
			}
			if n > 0 {
				return tmp.Rows, nil
			}
			// Embedded stream complete; fall through to any owed chunks.
			ps.body.Close()
			ps.body = nil
			continue
		}
		if ps.follow == nil || ps.follow.token == "" {
			ps.done = true
			return nil, nil
		}
		var next ChunkedData
		if err := ps.c.Call(ps.context(), ps.url, FetchAction, &FetchRequest{Token: ps.follow.token}, &next); err != nil {
			ps.fail(fmt.Errorf("soap: fetch chunk: %w", err))
			return nil, ps.err
		}
		if err := ps.follow.next(&next); err != nil {
			ps.fail(err)
			return nil, ps.err
		}
		ps.buf = next.Data.Rows
	}
}

// fail records err and releases whatever the stream still holds.
func (ps *PageStream) fail(err error) {
	ps.err = err
	if ps.body != nil {
		ps.body.Close()
		ps.body = nil
	}
	if ps.follow != nil && ps.follow.token != "" {
		releaseTransfer(ps.c, ps.url, ps.follow.token)
		ps.follow.token = ""
	}
}

// Close releases the stream. Abandoning a stream before its last page is
// legal (TOP does it): the connection is torn down and any parked
// server-side transfer is released rather than left to the TTL sweep.
func (ps *PageStream) Close() error {
	if ps.closed {
		return nil
	}
	ps.closed = true
	if ps.body != nil {
		ps.body.Close()
		ps.body = nil
	}
	if ps.err == nil && !ps.done && ps.follow != nil && ps.follow.token != "" {
		releaseTransfer(ps.c, ps.url, ps.follow.token)
		ps.follow.token = ""
	}
	return nil
}
