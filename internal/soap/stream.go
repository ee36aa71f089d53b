package soap

// Page streams. Every bulk answer is a page stream, produced once by a
// handler through ChunkStore.Reply; the caller's Accept decides what the
// pages become. A caller that reads the columnar format and asks for a
// stream gets a ChunkedStream: each page goes to the HTTP response as
// soon as it is written. Any other caller gets the same pages collected
// and parked as chunks it fetches one by one. A streamed body is a valid
// single-chunk ChunkedData body (SQCH header with an empty token), so
// non-streaming receivers decode it unchanged. On the receiving side
// OpenStream returns a PageStream over whichever shape the server chose,
// and FetchAll drains one from a first chunk already in hand. Errors
// after the stream has started travel in-band as columnar error frames
// (dataset.StreamError).

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"

	"skyquery/internal/dataset"
	"skyquery/internal/value"
)

// streamHeader marks a request whose caller consumes the response page
// by page; Reply only answers with a ChunkedStream when it is present,
// so buffered clients keep getting bounded chunked responses.
const streamHeader = "X-Skyquery-Stream"

// StreamWriter is handed to a bulk answer's producer: Schema exactly
// once, then Page per row group. On a streamed reply each page is
// flushed to the wire as soon as it is written; on a parked one
// (ChunkStore.Reply) the pages are collected.
type StreamWriter struct {
	schema      func(cols []dataset.Column) error
	page        func(rows [][]value.Value) error
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
	return sw.schema(cols)
}

// Page emits one row group. Empty pages are skipped. The writer may
// keep rows, so the caller must not reuse the slice.
func (sw *StreamWriter) Page(rows [][]value.Value) error {
	if !sw.wroteSchema {
		return fmt.Errorf("soap: stream page before schema")
	}
	if len(rows) == 0 {
		return nil
	}
	sw.rows += len(rows)
	return sw.page(rows)
}

// Rows returns how many rows have been written so far.
func (sw *StreamWriter) Rows() int { return sw.rows }

// run hands sw to a producer and requires it to have written a schema.
func (sw *StreamWriter) run(produce func(*StreamWriter) error) error {
	err := produce(sw)
	if err == nil && !sw.wroteSchema {
		err = fmt.Errorf("soap: stream produced no schema")
	}
	return err
}

// ChunkedStream is the streaming counterpart of ChunkedData: a response
// produced page by page while the HTTP exchange is open. It implements
// FrameStreamer; ChunkStore.Reply returns one only when
// Request.WantsStream reports the caller can consume it.
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
	flush := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	enc := dataset.NewColumnarEncoder(bw)
	sw := &StreamWriter{
		schema: func(cols []dataset.Column) error {
			if err := enc.WriteSchema(cols); err != nil {
				return err
			}
			return flush()
		},
		page: func(rows [][]value.Value) error {
			if err := enc.WritePage(rows); err != nil {
				return err
			}
			return flush()
		},
	}
	if runErr := sw.run(cs.Run); runErr != nil {
		if err := enc.WriteError(runErr.Error()); err != nil {
			return err
		}
		return flush()
	}
	if err := enc.Close(); err != nil {
		return err
	}
	return flush()
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
		return chunkStream(ctx, c, url, &first)
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
		if !slices.Equal(next.Data.Columns, ps.cols) {
			ps.fail(fmt.Errorf("soap: chunk %d schema mismatch", next.Seq))
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
