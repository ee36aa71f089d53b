package soap

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"skyquery/internal/dataset"
	"skyquery/internal/value"
)

// --- ChunkStore lifecycle: TTL, capacity, release, token hygiene ---

func TestChunkStoreTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	cs := ChunkStore{TTL: time.Minute}
	cs.now = func() time.Time { return now }
	first := cs.Respond(sampleDataSet(25), 10)
	if cs.Pending() != 1 {
		t.Fatal("transfer should be pending")
	}
	// A fetch slides the deadline.
	now = now.Add(45 * time.Second)
	if _, err := cs.Fetch(first.Token); err != nil {
		t.Fatal(err)
	}
	now = now.Add(45 * time.Second)
	if cs.Pending() != 1 {
		t.Fatal("fetch should have slid the TTL")
	}
	// The client died here; the tail must not leak forever.
	now = now.Add(time.Minute + time.Second)
	if cs.Pending() != 0 {
		t.Error("expired transfer still pending")
	}
	if cs.Evicted() != 1 {
		t.Errorf("evicted = %d, want 1", cs.Evicted())
	}
	if _, err := cs.Fetch(first.Token); err == nil {
		t.Error("fetching an expired token should fail")
	}
}

func TestChunkStoreMaxPendingEviction(t *testing.T) {
	cs := ChunkStore{MaxPending: 3}
	var firsts []*ChunkedData
	for i := 0; i < 5; i++ {
		firsts = append(firsts, cs.Respond(sampleDataSet(25), 10))
	}
	if got := cs.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	if got := cs.Evicted(); got != 2 {
		t.Errorf("evicted = %d, want 2", got)
	}
	// Oldest first: transfers 0 and 1 are gone, 2-4 survive.
	for i, first := range firsts {
		_, err := cs.Fetch(first.Token)
		if i < 2 && err == nil {
			t.Errorf("transfer %d should have been evicted", i)
		}
		if i >= 2 && err != nil {
			t.Errorf("transfer %d should survive: %v", i, err)
		}
	}
}

func TestChunkStoreRelease(t *testing.T) {
	var cs ChunkStore
	first := cs.Respond(sampleDataSet(25), 10)
	cs.Release(first.Token)
	if cs.Pending() != 0 {
		t.Error("released transfer still pending")
	}
	if cs.Evicted() != 0 {
		t.Error("an explicit release is not an eviction")
	}
	cs.Release("no-such-token") // must not panic
}

func TestChunkTokensUnguessable(t *testing.T) {
	var cs ChunkStore
	a := cs.Respond(sampleDataSet(25), 10)
	b := cs.Respond(sampleDataSet(25), 10)
	if a.Token == b.Token {
		t.Fatal("token reuse")
	}
	for _, tok := range []string{a.Token, b.Token} {
		if len(tok) < 2+32 {
			t.Errorf("token %q too short to be unguessable", tok)
		}
		if strings.HasPrefix(tok, "xfer-") {
			t.Errorf("token %q is sequential-style", tok)
		}
	}
}

// --- FetchAll hardening against buggy or malicious servers ---

func TestFetchAllRejectsReplayedChunk(t *testing.T) {
	// A server that re-sends the same chunk forever used to spin FetchAll
	// in an infinite loop; now the non-advancing Seq is a typed error.
	s := NewServer()
	replay := &ChunkedData{Token: "stuck", Seq: 1, Remaining: 3, Data: sampleDataSet(5)}
	s.Handle(FetchAction, func(r *Request) (interface{}, error) { return replay, nil })
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := &ChunkedData{Token: "stuck", Seq: 0, Remaining: 4, Data: sampleDataSet(5)}
	done := make(chan error, 1)
	go func() {
		_, err := FetchAll(context.Background(), &Client{}, ts.URL, first)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("err = %v, want seq-out-of-order", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("FetchAll still looping on a replayed chunk")
	}
}

func TestFetchAllEnforcesAnnouncedCount(t *testing.T) {
	// A server that keeps the token alive past the chunk count announced
	// by the first chunk's Remaining cannot extend the transfer.
	s := NewServer()
	seq := 0
	s.Handle(FetchAction, func(r *Request) (interface{}, error) {
		seq++
		// Seq advances correctly but the server never lets go.
		return &ChunkedData{Token: "greedy", Seq: seq, Remaining: 1, Data: sampleDataSet(5)}, nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := &ChunkedData{Token: "greedy", Seq: 0, Remaining: 2, Data: sampleDataSet(5)}
	done := make(chan error, 1)
	go func() {
		_, err := FetchAll(context.Background(), &Client{}, ts.URL, first)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("over-announced transfer should fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("FetchAll still looping past the announced chunk count")
	}
}

func TestChunkFollowerTruncation(t *testing.T) {
	// Dropping the token while chunks are still owed is truncation, not a
	// clean end.
	f, err := newChunkFollower(&ChunkedData{Token: "tk", Seq: 0, Remaining: 2, Data: sampleDataSet(1)})
	if err != nil {
		t.Fatal(err)
	}
	err = f.next(&ChunkedData{Token: "", Seq: 1, Remaining: 1, Data: sampleDataSet(1)})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("err = %v, want truncation", err)
	}
}

// --- Streamed responses ---

// streamServer serves urn:test:Stream: streaming callers get pages as
// they are produced; buffered callers get the classic chunked response.
func streamServer(t *testing.T, rows, pageRows int, failAfter int) (*ChunkStore, *httptest.Server) {
	t.Helper()
	cs := &ChunkStore{}
	s := NewServer()
	s.Handle("urn:test:Stream", func(r *Request) (interface{}, error) {
		d := sampleDataSet(rows)
		if !r.WantsStream() {
			return cs.Respond(d, pageRows), nil
		}
		return &ChunkedStream{Run: func(w *StreamWriter) error {
			if err := w.Schema(d.Columns); err != nil {
				return err
			}
			pages := 0
			for start := 0; start < len(d.Rows); start += pageRows {
				end := start + pageRows
				if end > len(d.Rows) {
					end = len(d.Rows)
				}
				if failAfter >= 0 && pages >= failAfter {
					return errors.New("node b2 died mid-stream")
				}
				if err := w.Page(d.Rows[start:end]); err != nil {
					return err
				}
				pages++
			}
			return nil
		}}, nil
	})
	s.Handle(FetchAction, cs.FetchHandler())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return cs, ts
}

func drainStream(t *testing.T, ps *PageStream) (*dataset.DataSet, int, error) {
	t.Helper()
	out := &dataset.DataSet{Columns: ps.Columns()}
	pages := 0
	for {
		rows, err := ps.Next()
		if err != nil {
			return out, pages, err
		}
		if rows == nil {
			return out, pages, nil
		}
		pages++
		out.Rows = append(out.Rows, rows...)
	}
}

func TestOpenStreamRoundTrip(t *testing.T) {
	const rows = 2500
	_, ts := streamServer(t, rows, 100, -1)
	ps, err := OpenStream(context.Background(), &Client{}, ts.URL, "urn:test:Stream", &FetchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	got, pages, err := drainStream(t, ps)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != rows {
		t.Fatalf("rows = %d, want %d", got.NumRows(), rows)
	}
	if pages != rows/100 {
		t.Errorf("pages = %d, want %d", pages, rows/100)
	}
	for i := 0; i < rows; i += 97 {
		if got.Rows[i][0].AsInt() != int64(i) {
			t.Fatalf("row %d corrupted: %v", i, got.Rows[i])
		}
	}
}

func TestOpenStreamMidStreamErrorIsTyped(t *testing.T) {
	// The stream dies after two pages: the rows so far decode, then a
	// typed *dataset.StreamError — never a silently truncated result.
	_, ts := streamServer(t, 1000, 100, 2)
	ps, err := OpenStream(context.Background(), &Client{}, ts.URL, "urn:test:Stream", &FetchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	got, pages, err := drainStream(t, ps)
	var se *dataset.StreamError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *dataset.StreamError", err, err)
	}
	if !strings.Contains(se.Msg, "node b2 died") {
		t.Errorf("message = %q", se.Msg)
	}
	if pages != 2 || got.NumRows() != 200 {
		t.Errorf("pages = %d rows = %d before the error, want 2/200", pages, got.NumRows())
	}
	// The stream stays dead.
	if _, err := ps.Next(); err == nil {
		t.Error("next after error should keep failing")
	}
}

func TestOpenStreamXMLFallback(t *testing.T) {
	// Against an XML-only server OpenStream degrades to chunk-by-chunk
	// fetching: same rows, still incremental.
	const rows = 2500
	cs, ts := streamServer(t, rows, 100, -1)
	c := &Client{Codec: CodecXML}
	ps, err := OpenStream(context.Background(), c, ts.URL, "urn:test:Stream", &FetchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	got, pages, err := drainStream(t, ps)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != rows {
		t.Fatalf("rows = %d, want %d", got.NumRows(), rows)
	}
	if pages != rows/100 {
		t.Errorf("pages = %d, want %d (one per chunk)", pages, rows/100)
	}
	if cs.Pending() != 0 {
		t.Error("transfer should be fully drained")
	}
}

func TestOpenStreamCloseReleasesTransfer(t *testing.T) {
	// Abandoning a fallback stream early must free the parked tail
	// immediately (the portal error path), not wait for the TTL sweep.
	cs, ts := streamServer(t, 2500, 100, -1)
	c := &Client{Codec: CodecXML}
	ps, err := OpenStream(context.Background(), c, ts.URL, "urn:test:Stream", &FetchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Next(); err != nil {
		t.Fatal(err)
	}
	if cs.Pending() != 1 {
		t.Fatal("transfer should be parked")
	}
	ps.Close()
	if cs.Pending() != 0 {
		t.Error("close did not release the parked transfer")
	}
}

func TestStreamedBodyDecodesAsChunkedData(t *testing.T) {
	// A streamed body is a valid single-chunk ChunkedData body, so a
	// non-incremental receiver can decode one with DecodeFrames.
	d := sampleDataSet(250)
	stream := &ChunkedStream{Run: func(w *StreamWriter) error {
		if err := w.Schema(d.Columns); err != nil {
			return err
		}
		return w.Page(d.Rows)
	}}
	var buf strings.Builder
	if err := stream.StreamFrames(discardFlusher{&buf}); err != nil {
		t.Fatal(err)
	}
	var cd ChunkedData
	if err := cd.DecodeFrames(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if cd.Token != "" || cd.Remaining != 0 || cd.Data.NumRows() != 250 {
		t.Errorf("decoded chunk = token %q remaining %d rows %d", cd.Token, cd.Remaining, cd.Data.NumRows())
	}
	if cd.Data.Rows[249][0].AsInt() != 249 {
		t.Error("row content corrupted")
	}
}

// discardFlusher adapts a strings.Builder to io.Writer for StreamFrames.
type discardFlusher struct{ b *strings.Builder }

func (d discardFlusher) Write(p []byte) (int, error) { return d.b.Write(p) }

func TestStreamBufferedFallbackSameRows(t *testing.T) {
	// The same action answers buffered callers with the classic chunked
	// response; both consumption styles see identical rows.
	const rows = 1200
	_, ts := streamServer(t, rows, 100, -1)
	c := &Client{}

	ps, err := OpenStream(context.Background(), c, ts.URL, "urn:test:Stream", &FetchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, _, err := drainStream(t, ps)
	ps.Close()
	if err != nil {
		t.Fatal(err)
	}

	var first ChunkedData
	if err := c.Call(context.Background(), ts.URL, "urn:test:Stream", &FetchRequest{}, &first); err != nil {
		t.Fatal(err)
	}
	folded, err := FetchAll(context.Background(), c, ts.URL, &first)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.NumRows() != folded.NumRows() {
		t.Fatalf("streamed %d rows, folded %d", streamed.NumRows(), folded.NumRows())
	}
	for i := range streamed.Rows {
		for j := range streamed.Rows[i] {
			if cmp, ok, _ := value.Compare(streamed.Rows[i][j], folded.Rows[i][j]); !ok || cmp != 0 {
				t.Fatalf("row %d col %d: streamed %v folded %v", i, j, streamed.Rows[i][j], folded.Rows[i][j])
			}
		}
	}
}

// TestReplyStreamsOrParks: one producer behind ChunkStore.Reply answers a
// streaming caller page by page and a buffered caller with the same rows
// parked as chunks; a producer's fault reaches a buffered caller intact.
func TestReplyStreamsOrParks(t *testing.T) {
	cs := &ChunkStore{}
	d := sampleDataSet(1200)
	s := NewServer()
	s.Handle("urn:test:Reply", func(r *Request) (interface{}, error) {
		return cs.Reply(r, 250, func(w *StreamWriter) error {
			if err := w.Schema(d.Columns); err != nil {
				return err
			}
			for start := 0; start < len(d.Rows); start += 100 {
				if err := w.Page(d.Rows[start:min(start+100, len(d.Rows))]); err != nil {
					return err
				}
			}
			return nil
		})
	})
	s.Handle("urn:test:Shed", func(r *Request) (interface{}, error) {
		return cs.Reply(r, 250, func(w *StreamWriter) error {
			return &Fault{Code: "soap:Server", String: "busy", Detail: FaultDetailOverloaded}
		})
	})
	s.Handle(FetchAction, cs.FetchHandler())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	c := &Client{}

	ps, err := OpenStream(context.Background(), c, ts.URL, "urn:test:Reply", &FetchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, pages, err := drainStream(t, ps)
	ps.Close()
	if err != nil {
		t.Fatal(err)
	}
	if pages != 12 {
		t.Errorf("streamed %d pages, want the producer's 12", pages)
	}

	var first ChunkedData
	if err := c.Call(context.Background(), ts.URL, "urn:test:Reply", &FetchRequest{}, &first); err != nil {
		t.Fatal(err)
	}
	if first.Remaining != 4 || first.Data.NumRows() != 250 {
		t.Errorf("parked first chunk: %d rows, %d remaining; want 250 rows, 4 remaining", first.Data.NumRows(), first.Remaining)
	}
	parked, err := FetchAll(context.Background(), c, ts.URL, &first)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*dataset.DataSet{streamed, parked} {
		if got.NumRows() != d.NumRows() {
			t.Fatalf("got %d rows, want %d", got.NumRows(), d.NumRows())
		}
		for i := range d.Rows {
			if got.Rows[i][0].AsInt() != d.Rows[i][0].AsInt() {
				t.Fatalf("row %d = %v, want %v", i, got.Rows[i], d.Rows[i])
			}
		}
	}
	if cs.Pending() != 0 {
		t.Errorf("%d transfers still parked after the drain", cs.Pending())
	}

	err = c.Call(context.Background(), ts.URL, "urn:test:Shed", &FetchRequest{}, &first)
	if !IsOverloaded(err) {
		t.Errorf("parked reply's fault = %v, want the producer's Overloaded fault", err)
	}
}
