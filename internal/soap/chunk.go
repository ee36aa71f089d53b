package soap

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"sync"
	"time"

	"skyquery/internal/dataset"
	"skyquery/internal/value"
)

// This file implements the chunked transfer of large data sets: the
// workaround of §6 for XML parsers failing on ~10 MB messages. The callee
// splits its result with dataset.Split, returns the first chunk together
// with a continuation token, and the caller pulls the remaining chunks
// with Fetch calls until none remain.

// FetchAction is the SOAPAction under which servers using chunked
// responses serve continuation fetches.
const FetchAction = "urn:skyquery:Fetch"

// ChunkedData is one chunk of a large data set on the wire.
type ChunkedData struct {
	XMLName xml.Name `xml:"ChunkedData"`
	// Token identifies the transfer for follow-up Fetch calls; empty when
	// no chunks remain.
	Token string `xml:"token,attr,omitempty"`
	// Seq is the zero-based chunk number.
	Seq int `xml:"seq,attr"`
	// Remaining counts the chunks still waiting after this one.
	Remaining int `xml:"remaining,attr"`
	// Data is the chunk payload.
	Data *dataset.DataSet `xml:"DataSet"`
}

// chunkMagic opens a columnar-framed ChunkedData body: "SQCH".
const chunkMagic = 0x48435153

// maxChunkToken bounds the continuation-token length a decoder accepts.
const maxChunkToken = 1 << 10

// appendChunkHeader appends the fixed SQCH meta header (magic, token,
// seq, remaining) shared by buffered chunks and streamed bodies.
func appendChunkHeader(hdr []byte, token string, seq, remaining int) ([]byte, error) {
	if len(token) > maxChunkToken {
		return nil, fmt.Errorf("soap: chunk token of %d bytes too long", len(token))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, chunkMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(token)))
	hdr = append(hdr, token...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(seq))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(remaining))
	return hdr, nil
}

// readChunkHeader consumes the fixed SQCH meta header from r.
func readChunkHeader(r io.Reader) (token string, seq, remaining int, err error) {
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return "", 0, 0, fmt.Errorf("soap: chunk header: %w", err)
	}
	if binary.LittleEndian.Uint32(fixed[:]) != chunkMagic {
		return "", 0, 0, fmt.Errorf("soap: not a columnar chunk body (bad magic)")
	}
	tokenLen := binary.LittleEndian.Uint32(fixed[4:])
	if tokenLen > maxChunkToken {
		return "", 0, 0, fmt.Errorf("soap: chunk token of %d bytes too long", tokenLen)
	}
	buf := make([]byte, tokenLen+8)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", 0, 0, fmt.Errorf("soap: chunk header: %w", err)
	}
	token = string(buf[:tokenLen])
	seq = int(int32(binary.LittleEndian.Uint32(buf[tokenLen:])))
	remaining = int(int32(binary.LittleEndian.Uint32(buf[tokenLen+4:])))
	if seq < 0 || remaining < 0 {
		return "", 0, 0, fmt.Errorf("soap: chunk header has negative counters")
	}
	return token, seq, remaining, nil
}

// EncodeFrames implements BinaryPayload: a small fixed meta header
// (magic, token, seq, remaining) followed by the data set's columnar
// frame stream, whose CRC framing covers the bulk payload.
func (cd *ChunkedData) EncodeFrames(w io.Writer) error {
	if cd == nil || cd.Data == nil {
		return fmt.Errorf("soap: chunked response has no data set")
	}
	hdr, err := appendChunkHeader(nil, cd.Token, cd.Seq, cd.Remaining)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return cd.Data.EncodeColumnar(w, 0)
}

// DecodeFrames implements BinaryPayload, replacing the receiver.
func (cd *ChunkedData) DecodeFrames(r io.Reader) error {
	token, seq, remaining, err := readChunkHeader(r)
	if err != nil {
		return err
	}
	cd.Token, cd.Seq, cd.Remaining = token, seq, remaining
	d, err := dataset.DecodeColumnar(r)
	if err != nil {
		return err
	}
	cd.Data = d
	return nil
}

// FetchRequest asks for the next chunk of a pending transfer — or, with
// Release set, tells the server the caller will not finish draining it,
// so the parked tail can be dropped immediately instead of waiting for
// the TTL sweep.
type FetchRequest struct {
	XMLName xml.Name `xml:"Fetch"`
	Token   string   `xml:"token,attr"`
	Release bool     `xml:"release,attr,omitempty"`
}

// ReleaseResponse acknowledges a FetchRequest with Release set.
type ReleaseResponse struct {
	XMLName xml.Name `xml:"ReleaseResponse"`
}

// ChunkStore lifecycle defaults.
const (
	// DefaultChunkTTL is how long a parked transfer survives without a
	// fetch. A client that dies after the first chunk must not leak the
	// remainder forever; each successful fetch slides the deadline.
	DefaultChunkTTL = 2 * time.Minute

	// DefaultMaxPending caps concurrently parked transfers; beyond it the
	// oldest transfer is evicted to make room.
	DefaultMaxPending = 256
)

// ChunkStore holds the pending tail chunks of in-flight transfers on the
// server side. The zero value is ready to use with the lifecycle
// defaults above. Tokens are unguessable (128-bit random), so one client
// cannot fetch — and thereby destroy — another client's transfer.
type ChunkStore struct {
	// TTL overrides DefaultChunkTTL when positive.
	TTL time.Duration
	// MaxPending overrides DefaultMaxPending when positive.
	MaxPending int

	mu      sync.Mutex
	pending map[string]*transfer
	order   []string // tokens in creation order, for oldest-first eviction
	evicted int64
	now     func() time.Time // test hook; nil means time.Now
}

// transfer is the parked tail of one chunked response.
type transfer struct {
	chunks  []*dataset.DataSet
	nextSeq int
	expires time.Time
}

// randomToken returns an unguessable transfer token.
func randomToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; refusing to
		// chunk would be worse than a degraded token.
		panic("soap: crypto/rand unavailable: " + err.Error())
	}
	return "t-" + hex.EncodeToString(b[:])
}

func (cs *ChunkStore) clock() time.Time {
	if cs.now != nil {
		return cs.now()
	}
	return time.Now()
}

func (cs *ChunkStore) ttl() time.Duration {
	if cs.TTL > 0 {
		return cs.TTL
	}
	return DefaultChunkTTL
}

func (cs *ChunkStore) maxPending() int {
	if cs.MaxPending > 0 {
		return cs.MaxPending
	}
	return DefaultMaxPending
}

// sweepLocked drops expired transfers. Caller holds cs.mu.
func (cs *ChunkStore) sweepLocked(now time.Time) {
	if len(cs.pending) == 0 {
		cs.order = cs.order[:0]
		return
	}
	for token, tr := range cs.pending {
		if now.After(tr.expires) {
			delete(cs.pending, token)
			cs.evicted++
		}
	}
	if len(cs.order) > 2*cs.maxPending() {
		// Compact tokens of already-drained transfers out of the
		// eviction order so it cannot grow without bound.
		live := cs.order[:0]
		for _, token := range cs.order {
			if _, ok := cs.pending[token]; ok {
				live = append(live, token)
			}
		}
		cs.order = live
	}
}

// evictOldestLocked drops the oldest live transfer. Caller holds cs.mu.
func (cs *ChunkStore) evictOldestLocked() {
	for len(cs.order) > 0 {
		token := cs.order[0]
		cs.order = cs.order[1:]
		if _, ok := cs.pending[token]; ok {
			delete(cs.pending, token)
			cs.evicted++
			return
		}
	}
}

// Respond prepares a possibly chunked response for a data set: the
// returned ChunkedData is the first chunk; any remainder is parked in the
// store under the embedded token. maxRows <= 0 disables chunking.
func (cs *ChunkStore) Respond(d *dataset.DataSet, maxRows int) *ChunkedData {
	chunks := d.Split(maxRows)
	first := &ChunkedData{Seq: 0, Remaining: len(chunks) - 1, Data: chunks[0]}
	if len(chunks) > 1 {
		token := randomToken()
		cs.mu.Lock()
		now := cs.clock()
		cs.sweepLocked(now)
		if cs.pending == nil {
			cs.pending = map[string]*transfer{}
		}
		for len(cs.pending) >= cs.maxPending() {
			cs.evictOldestLocked()
		}
		cs.pending[token] = &transfer{chunks: chunks[1:], nextSeq: 1, expires: now.Add(cs.ttl())}
		cs.order = append(cs.order, token)
		cs.mu.Unlock()
		first.Token = token
	}
	return first
}

// Reply answers a bulk request with the pages produce writes. A caller
// that asked for a stream (Request.WantsStream) gets each page as it is
// written. Any other caller gets the same pages collected into one data
// set and answered as parked chunks of at most maxRows rows (Respond);
// a produce error then becomes the handler's error, so a *Fault keeps
// its code and detail. On the streamed path the error travels in-band.
func (cs *ChunkStore) Reply(r *Request, maxRows int, produce func(*StreamWriter) error) (interface{}, error) {
	if r.WantsStream() {
		return &ChunkedStream{Run: produce}, nil
	}
	d := &dataset.DataSet{}
	sw := &StreamWriter{
		schema: func(cols []dataset.Column) error {
			d.Columns = cols
			return nil
		},
		page: func(rows [][]value.Value) error {
			d.Rows = append(d.Rows, rows...)
			return nil
		},
	}
	if err := sw.run(produce); err != nil {
		return nil, err
	}
	return cs.Respond(d, maxRows), nil
}

// Fetch pops the next chunk of a transfer and slides its TTL. The final
// chunk carries no token; fetching an unknown, expired, or exhausted
// token is an error.
func (cs *ChunkStore) Fetch(token string) (*ChunkedData, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	now := cs.clock()
	cs.sweepLocked(now)
	tr, ok := cs.pending[token]
	if !ok {
		return nil, fmt.Errorf("soap: unknown or exhausted transfer token %q", token)
	}
	out := &ChunkedData{Seq: tr.nextSeq, Remaining: len(tr.chunks) - 1, Data: tr.chunks[0]}
	if len(tr.chunks) == 1 {
		delete(cs.pending, token)
	} else {
		tr.chunks = tr.chunks[1:]
		tr.nextSeq++
		tr.expires = now.Add(cs.ttl())
		out.Token = token
	}
	return out, nil
}

// Release drops a transfer whose caller will not finish draining it.
// Unknown tokens are ignored: the transfer may already have expired.
func (cs *ChunkStore) Release(token string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.pending, token)
}

// Pending returns the number of in-flight transfers (for tests and
// monitoring).
func (cs *ChunkStore) Pending() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.sweepLocked(cs.clock())
	return len(cs.pending)
}

// Evicted returns how many transfers were dropped by TTL expiry or
// max-pending pressure (not by normal draining or explicit Release).
func (cs *ChunkStore) Evicted() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.evicted
}

// FetchHandler returns the SOAP handler serving FetchAction for the store.
func (cs *ChunkStore) FetchHandler() Handler {
	return func(r *Request) (interface{}, error) {
		var req FetchRequest
		if err := r.Decode(&req); err != nil {
			return nil, err
		}
		if req.Release {
			cs.Release(req.Token)
			return &ReleaseResponse{}, nil
		}
		return cs.Fetch(req.Token)
	}
}

// Stash parks a data set in the store under n fresh tokens, each serving
// the complete set from chunk zero: the distribution mechanism of the
// scatter tier, where every shard of a step fetches its own copy of the
// step's incoming tuples. The chunk slices are shared across tokens
// (data sets are read-only once published), so the memory cost is one
// split regardless of fan-out. Each token follows the normal transfer
// lifecycle: drained to exhaustion, explicitly released, or TTL-swept.
func (cs *ChunkStore) Stash(d *dataset.DataSet, maxRows, n int) []string {
	chunks := d.Split(maxRows)
	tokens := make([]string, n)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	now := cs.clock()
	cs.sweepLocked(now)
	if cs.pending == nil {
		cs.pending = map[string]*transfer{}
	}
	for i := range tokens {
		for len(cs.pending) >= cs.maxPending() {
			cs.evictOldestLocked()
		}
		token := randomToken()
		cs.pending[token] = &transfer{chunks: chunks, nextSeq: 0, expires: now.Add(cs.ttl())}
		cs.order = append(cs.order, token)
		tokens[i] = token
	}
	return tokens
}

// OpenStash opens a stashed transfer as a page stream from its first
// chunk: the callee side of Stash.
func OpenStash(ctx context.Context, c *Client, url, token string) (*PageStream, error) {
	var first ChunkedData
	if err := c.Call(ctx, url, FetchAction, &FetchRequest{Token: token}, &first); err != nil {
		return nil, fmt.Errorf("soap: fetch stashed transfer: %w", err)
	}
	return chunkStream(ctx, c, url, &first)
}

// chunkFollower validates the chunk sequence of one transfer as a caller
// drains it: Seq must advance by exactly one per chunk, the total chunk
// count is capped by the first chunk's Remaining, each chunk's Remaining
// must count down consistently, and the continuation token must be
// present exactly while chunks remain. A buggy or malicious server that
// re-sends a chunk, invents extra ones, or drops the tail produces a
// typed error instead of an infinite loop or silent truncation.
type chunkFollower struct {
	token  string
	expect int // Seq the next chunk must carry
	left   int // chunks still owed
}

// newChunkFollower validates the first chunk and starts a follower.
func newChunkFollower(first *ChunkedData) (*chunkFollower, error) {
	if first.Seq != 0 {
		return nil, fmt.Errorf("soap: first chunk has seq %d, want 0", first.Seq)
	}
	if err := checkChunkToken(first.Token, first.Remaining); err != nil {
		return nil, err
	}
	return &chunkFollower{token: first.Token, expect: 1, left: first.Remaining}, nil
}

// next validates one follow-up chunk and advances the follower.
func (f *chunkFollower) next(cd *ChunkedData) error {
	if cd.Data == nil {
		return fmt.Errorf("soap: fetch returned no data")
	}
	if f.left <= 0 {
		return fmt.Errorf("soap: transfer sent more chunks than the %d it announced", f.expect)
	}
	if cd.Seq != f.expect {
		return fmt.Errorf("soap: chunk seq %d out of order, want %d", cd.Seq, f.expect)
	}
	if cd.Remaining != f.left-1 {
		return fmt.Errorf("soap: chunk %d claims %d remaining, want %d", cd.Seq, cd.Remaining, f.left-1)
	}
	f.expect++
	f.left--
	if err := checkChunkToken(cd.Token, f.left); err != nil {
		return err
	}
	f.token = cd.Token
	return nil
}

// checkChunkToken requires a continuation token exactly while chunks
// remain.
func checkChunkToken(token string, left int) error {
	if left > 0 && token == "" {
		return fmt.Errorf("soap: transfer truncated: %d chunks still owed but no continuation token", left)
	}
	if left == 0 && token != "" {
		return fmt.Errorf("soap: continuation token on the final chunk")
	}
	return nil
}

// releaseTransfer tells url to drop a transfer the caller cannot finish
// draining. Best effort: the server's TTL sweep is the backstop. The
// release deliberately runs on a fresh context: it must go out even when
// the caller abandoned the transfer *because* its context was cancelled.
func releaseTransfer(c *Client, url, token string) {
	if token == "" {
		return
	}
	var ack ReleaseResponse
	_ = c.Call(context.Background(), url, FetchAction, &FetchRequest{Token: token, Release: true}, &ack)
}

// chunkStream starts a page stream at the first chunk of a transfer;
// the remaining chunks are fetched from url as the stream is read.
func chunkStream(ctx context.Context, c *Client, url string, first *ChunkedData) (*PageStream, error) {
	if first == nil || first.Data == nil {
		return nil, fmt.Errorf("soap: empty chunked response")
	}
	follow, err := newChunkFollower(first)
	if err != nil {
		return nil, err
	}
	return &PageStream{c: c, ctx: ctx, url: url, cols: first.Data.Columns, buf: first.Data.Rows, follow: follow}, nil
}

// FetchAll drains a chunked response: given the first chunk, it pulls the
// remaining ones from url via the client and returns the joined data set.
// The chunk sequence is validated (monotonic Seq, chunk count capped by
// the first chunk's Remaining); on any mid-drain failure the transfer is
// released server-side.
func FetchAll(ctx context.Context, c *Client, url string, first *ChunkedData) (*dataset.DataSet, error) {
	ps, err := chunkStream(ctx, c, url, first)
	if err != nil {
		return nil, err
	}
	return dataset.Drain(ps)
}
