// Package soap implements the SOAP 1.1 subset SkyQuery runs on (§3.1):
// XML envelopes POSTed over HTTP with a SOAPAction header identifying the
// target operation, request-response and fault semantics, and a
// configurable message-size limit that reproduces the production failure
// described in §6 — "the XML parser at the SkyNode would run out of memory
// while parsing SOAP messages of about 10 MB". Callers avoid the limit the
// same way the paper did: by chunking large data sets (see
// internal/dataset.Split and the chunked transfer helpers here).
//
// An XML message is decoded in one streaming pass: the envelope is read
// up to the body's first element, which is decoded in place into the
// caller's type (Unmarshal on the client, Request.Decode on the server),
// and then the rest of the envelope is read.
package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"skyquery/internal/nettrace"
)

// EnvelopeNS is the SOAP 1.1 envelope namespace.
const EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// DefaultMessageLimit mirrors the ~10 MB ceiling of the paper's XML parser.
const DefaultMessageLimit = 10 << 20

// DefaultCallTimeout bounds a SOAP call end to end when the caller does
// not choose its own. A portal must not hang forever on a stalled node:
// without a deadline a single wedged SkyNode pins the mediator's worker
// (and the user's query) indefinitely.
const DefaultCallTimeout = 2 * time.Minute

// Fault is a SOAP fault, used both on the wire and as a Go error.
type Fault struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Fault"`
	Code    string   `xml:"faultcode"`
	String  string   `xml:"faultstring"`
	Detail  string   `xml:"detail,omitempty"`
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// FaultDetailOverloaded marks the 429-equivalent fault an admission
// gate sheds load with. Callers may retry after a backoff: the server
// refused to start the work, so the call is idempotent to repeat.
const FaultDetailOverloaded = "Overloaded"

// IsOverloaded reports whether err is a retryable overload-shed fault.
func IsOverloaded(err error) bool {
	f, ok := err.(*Fault)
	return ok && f.Detail == FaultDetailOverloaded
}

// DefaultRetryBackoff is the base delay of the client's overload retry
// schedule (doubled per attempt).
const DefaultRetryBackoff = 25 * time.Millisecond

// ErrMessageTooLarge reports a message that exceeded the configured limit,
// standing in for the paper's parser running out of memory.
type ErrMessageTooLarge struct {
	Size, Limit int64
}

// Error implements the error interface.
func (e *ErrMessageTooLarge) Error() string {
	return fmt.Sprintf("soap: message of %d bytes exceeds the XML parser limit of %d bytes", e.Size, e.Limit)
}

// envelope is the encode-side wire structure.
type envelope struct {
	XMLName xml.Name   `xml:"soap:Envelope"`
	NS      string     `xml:"xmlns:soap,attr"`
	Body    bodyEncode `xml:"soap:Body"`
}

type bodyEncode struct {
	Payload interface{}
}

// Marshal wraps a payload in a SOAP envelope.
func Marshal(payload interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := marshalTo(&buf, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// marshalTo appends the SOAP envelope around payload to buf.
func marshalTo(buf *bytes.Buffer, payload interface{}) error {
	buf.WriteString(xml.Header)
	env := envelope{NS: EnvelopeNS, Body: bodyEncode{Payload: payload}}
	if err := xml.NewEncoder(buf).Encode(env); err != nil {
		return fmt.Errorf("soap: marshal: %w", err)
	}
	return nil
}

// replyBufs recycles the buffers the server builds whole replies in, so a
// reply does not regrow a fresh buffer by doubling up to its size. Only
// the server pools: a client's request body may still be read by
// net/http after RoundTrip returns.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledReply caps the buffers replyBufs keeps, so one huge reply does
// not pin its memory for the life of the process.
const maxPooledReply = 4 << 20

func getReplyBuf() *bytes.Buffer { return replyBufs.Get().(*bytes.Buffer) }

// putReplyBuf returns a buffer once its bytes have been written out.
func putReplyBuf(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledReply {
		return
	}
	buf.Reset()
	replyBufs.Put(buf)
}

// Unmarshal extracts the body payload of a SOAP envelope into out,
// decoding it in place in one pass over data. If the body carries a
// fault, it is returned as a *Fault error. out may be nil for empty
// responses. An envelope with more than one Body is malformed.
func Unmarshal(data []byte, out interface{}) error {
	env, err := openEnvelope(data)
	if err != nil {
		return fmt.Errorf("soap: bad envelope: %w", err)
	}
	if env.payload == nil {
		if out != nil && env.bodyText {
			return fmt.Errorf("soap: bad body: %w", io.EOF)
		}
		return nil
	}
	if env.payload.Name.Local == "Fault" {
		var f Fault
		if err := env.decode(&f); err != nil {
			return decodeError("fault", err)
		}
		return &f
	}
	if err := env.decode(out); err != nil {
		return decodeError("body", err)
	}
	return nil
}

// decodeError labels a failed payload decode: a syntax error is a
// malformed envelope, anything else a payload that does not fit its type.
func decodeError(what string, err error) error {
	if isSyntaxError(err) {
		return fmt.Errorf("soap: bad envelope: %w", err)
	}
	return fmt.Errorf("soap: bad %s: %w", what, err)
}

func isSyntaxError(err error) bool {
	var se *xml.SyntaxError
	return errors.As(err, &se)
}

// errTwoBodiesMsg is the syntax error of an envelope with a second Body.
const errTwoBodiesMsg = "soap: envelope has more than one Body"

// envelopeReader decodes an XML SOAP envelope in one streaming pass.
// openEnvelope reads up to the body's first element, the payload, and
// stops there; decode then decodes the payload in place and reads on to
// </Envelope>, so every token of the message is read once. Like
// xml.Unmarshal, it matches Envelope and Body by local name, skips any
// other child of Envelope (a Header), and ignores bytes after
// </Envelope>.
type envelopeReader struct {
	dec *xml.Decoder
	// payload is the body's first element, nil when the body has none.
	payload *xml.StartElement
	// bodyText reports, when payload is nil, that the body held more
	// than whitespace: text, a comment or a processing instruction. It
	// is judged on the body's raw bytes (data from bodyOffset on), since
	// a CDATA section or character reference that decodes to whitespace
	// is a token indistinguishable from plain whitespace.
	bodyText bool

	data       []byte
	depth      int // 1 inside Envelope, 2 inside Body
	sawBody    bool
	bodyOffset int64
}

// openEnvelope positions a reader over data at the body's payload. A
// message with no payload is read to </Envelope>.
func openEnvelope(data []byte) (*envelopeReader, error) {
	e := &envelopeReader{dec: xml.NewDecoder(bytes.NewReader(data)), data: data}
	if err := e.next(); err != nil {
		return nil, err
	}
	return e, nil
}

// next reads on to the body's first element, when none has been found
// yet, or else to </Envelope>, skipping every other element.
func (e *envelopeReader) next() error {
	for {
		off := e.dec.InputOffset()
		tok, err := e.dec.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch {
			case e.depth == 0:
				if t.Name.Local != "Envelope" {
					return fmt.Errorf("expected element type <Envelope> but have <%s>", t.Name.Local)
				}
				e.depth = 1
			case e.depth == 2 && e.payload == nil:
				e.payload = &t
				return nil
			case e.depth == 1 && t.Name.Local == "Body":
				if e.sawBody {
					line, _ := e.dec.InputPos()
					return &xml.SyntaxError{Msg: errTwoBodiesMsg, Line: line}
				}
				e.sawBody = true
				e.depth = 2
				e.bodyOffset = e.dec.InputOffset()
			default:
				if err := e.dec.Skip(); err != nil {
					return err
				}
			}
		case xml.EndElement:
			if e.depth == 2 && e.payload == nil {
				e.bodyText = len(bytes.TrimSpace(e.data[e.bodyOffset:off])) > 0
			}
			if e.depth--; e.depth == 0 {
				return nil
			}
		}
	}
}

// decode decodes the payload into out, or skips it when out is nil, and
// then reads the rest of the envelope.
func (e *envelopeReader) decode(out interface{}) error {
	var err error
	if out == nil {
		err = e.dec.Skip()
	} else {
		err = e.dec.DecodeElement(out, e.payload)
	}
	if err != nil {
		return err
	}
	return e.next()
}

// Handler processes one SOAP operation: it decodes its typed request with
// Request.Decode and returns a payload to ship back (or an error, which
// becomes a fault).
type Handler func(r *Request) (interface{}, error)

// Request carries the request envelope, read up to its payload, and HTTP
// metadata to handlers.
type Request struct {
	// Action is the SOAPAction header value, unquoted.
	Action string
	// RemoteAddr is the caller's address as reported by HTTP.
	RemoteAddr string
	// AcceptsColumnar reports that the caller advertised the columnar
	// format and this server negotiates it: the handler may answer with
	// a FrameStreamer (or BinaryPayload) and it will go out columnar.
	AcceptsColumnar bool
	// Ctx is the request's context: it is cancelled when the caller
	// disconnects or cancels, and handlers should thread it into any
	// downstream calls so federated work aborts end to end.
	Ctx         context.Context
	wantsStream bool
	env         *envelopeReader
}

// Context returns the request's context, or context.Background for
// requests constructed without one (tests, local dispatch).
func (r *Request) Context() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Decode decodes the request payload into the given struct, in place off
// the envelope stream, and reads the rest of the envelope. It may be
// called once. A syntax error it meets in or after the payload is
// returned as the soap:Client "bad envelope" *Fault that ServeHTTP sends
// for a malformed envelope prefix.
func (r *Request) Decode(into interface{}) error {
	env := r.env
	if env == nil {
		return fmt.Errorf("soap: request for %q has no payload left to decode", r.Action)
	}
	r.env = nil
	if env.payload == nil {
		return fmt.Errorf("soap: decode request for %q: %w", r.Action, io.EOF)
	}
	if err := env.decode(into); err != nil {
		if isSyntaxError(err) {
			return &Fault{Code: "soap:Client", String: "bad envelope: " + err.Error()}
		}
		return fmt.Errorf("soap: decode request for %q: %w", r.Action, err)
	}
	return nil
}

// Server dispatches SOAP calls to handlers by SOAPAction. It implements
// http.Handler. The zero value is usable.
type Server struct {
	// MessageLimit bounds accepted request sizes; 0 means
	// DefaultMessageLimit, negative means unlimited.
	MessageLimit int64
	// WSDL, if non-empty, is served for GET requests with a ?wsdl query.
	WSDL string
	// Codec selects the response codec policy: CodecNegotiate (default)
	// serves columnar bodies to clients that accept them, CodecXML always
	// answers in XML.
	Codec Codec

	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewServer returns a server with the default message limit.
func NewServer() *Server {
	return &Server{handlers: map[string]Handler{}}
}

// Handle registers a handler for a SOAPAction.
func (s *Server) Handle(action string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.handlers == nil {
		s.handlers = map[string]Handler{}
	}
	s.handlers[action] = h
}

// Actions returns the registered SOAPAction names, unsorted.
func (s *Server) Actions() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.handlers))
	for a := range s.handlers {
		out = append(out, a)
	}
	return out
}

func (s *Server) limit() int64 {
	switch {
	case s.MessageLimit == 0:
		return DefaultMessageLimit
	case s.MessageLimit < 0:
		return 1 << 62
	default:
		return s.MessageLimit
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		if s.WSDL != "" && r.URL.RawQuery == "wsdl" {
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			io.WriteString(w, s.WSDL)
			return
		}
		http.Error(w, "soap endpoint: POST with SOAPAction required", http.StatusMethodNotAllowed)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	action := strings.Trim(r.Header.Get("SOAPAction"), `"`)
	s.mu.RLock()
	h, ok := s.handlers[action]
	s.mu.RUnlock()
	if !ok {
		s.writeFault(w, &Fault{Code: "soap:Client", String: fmt.Sprintf("unknown SOAPAction %q", action)})
		return
	}

	limit := s.limit()
	data, err := readBody(r.Body, r.ContentLength, limit)
	if err != nil {
		s.writeFault(w, &Fault{Code: "soap:Server", String: "read error: " + err.Error()})
		return
	}
	if int64(len(data)) > limit {
		// The paper's parser died here; surface it as a distinguishable
		// server fault.
		tooBig := &ErrMessageTooLarge{Size: int64(len(data)), Limit: limit}
		s.writeFault(w, &Fault{Code: "soap:Server", String: tooBig.Error(), Detail: "MessageTooLarge"})
		return
	}

	env, err := openEnvelope(data)
	if err != nil {
		s.writeFault(w, &Fault{Code: "soap:Client", String: "bad envelope: " + err.Error()})
		return
	}
	wantsColumnar := s.Codec == CodecNegotiate && acceptsColumnar(r.Header.Get("Accept"))
	resp, err := h(&Request{
		Action:          action,
		RemoteAddr:      r.RemoteAddr,
		AcceptsColumnar: wantsColumnar,
		Ctx:             r.Context(),
		wantsStream:     r.Header.Get(streamHeader) != "",
		env:             env,
	})
	if err != nil {
		if f, ok := err.(*Fault); ok {
			s.writeFault(w, f)
			return
		}
		s.writeFault(w, &Fault{Code: "soap:Server", String: err.Error()})
		return
	}
	if wantsColumnar {
		if fs, ok := resp.(FrameStreamer); ok {
			// Unbuffered: frames go out as the handler's work produces
			// them. Failures after this point are in-band error frames.
			w.Header().Set("Content-Type", ContentTypeColumnar)
			fs.StreamFrames(w)
			return
		}
		if bp, ok := resp.(BinaryPayload); ok {
			// Buffered so an encode failure can still become a clean
			// XML fault instead of a torn stream.
			buf := getReplyBuf()
			defer putReplyBuf(buf)
			if err := bp.EncodeFrames(buf); err != nil {
				s.writeFault(w, &Fault{Code: "soap:Server", String: "encode response: " + err.Error()})
				return
			}
			writeBuffered(w, ContentTypeColumnar, http.StatusOK, buf.Bytes())
			return
		}
	}
	buf := getReplyBuf()
	defer putReplyBuf(buf)
	if err := marshalTo(buf, resp); err != nil {
		s.writeFault(w, &Fault{Code: "soap:Server", String: "marshal response: " + err.Error()})
		return
	}
	writeBuffered(w, contentTypeXML, http.StatusOK, buf.Bytes())
}

func (s *Server) writeFault(w http.ResponseWriter, f *Fault) {
	buf := getReplyBuf()
	defer putReplyBuf(buf)
	if err := marshalTo(buf, f); err != nil {
		http.Error(w, f.String, http.StatusInternalServerError)
		return
	}
	status := http.StatusInternalServerError
	if f.Detail == FaultDetailOverloaded {
		// The 429/503 analogue: the work was refused, not attempted.
		status = http.StatusServiceUnavailable
	}
	writeBuffered(w, contentTypeXML, status, buf.Bytes())
}

// writeBuffered sends a reply that is already whole in memory, with its
// Content-Length so the receiver can size its read buffer once.
func writeBuffered(w http.ResponseWriter, contentType string, status int, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// maxPresize bounds how much of a declared Content-Length readBody
// allocates before the bytes arrive: a peer can declare any length, and
// a longer body grows the buffer only as it comes in.
const maxPresize = 1 << 20

// readBody reads a message of at most limit bytes from r; it reads one
// byte past the limit so callers can tell an oversized message. A
// declared length within the limit sizes the buffer up front, up to
// maxPresize.
func readBody(r io.Reader, length, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if length >= 0 && length <= limit {
		buf.Grow(int(min(length, maxPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(r, limit+1))
	return buf.Bytes(), err
}

// Client issues SOAP calls.
type Client struct {
	// HTTPClient, when set, is used as-is — including its own Timeout —
	// and the Timeout field below is ignored; the caller owns deadlines.
	HTTPClient *http.Client
	// MessageLimit bounds response sizes the client will parse; 0 means
	// DefaultMessageLimit, negative means unlimited.
	MessageLimit int64
	// Timeout bounds each call end to end (connect, write, read) when
	// HTTPClient is nil: 0 means DefaultCallTimeout, negative disables
	// the deadline. The zero-value Client therefore times out rather
	// than hanging forever on a stalled server.
	Timeout time.Duration
	// Codec selects the wire codec: CodecNegotiate (default) advertises
	// the binary columnar format on calls whose response supports it and
	// accepts whatever the server chooses; CodecXML never advertises it.
	Codec Codec
	// MaxRetries is how many times an overload-shed call (IsOverloaded)
	// is retried after the first attempt; other errors never retry.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry, doubling
	// per attempt; 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration

	mu     sync.Mutex
	cached *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	d := c.Timeout
	switch {
	case d == 0:
		d = DefaultCallTimeout
	case d < 0:
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cached == nil || c.cached.Timeout != d {
		// Shares the process-wide tuned transport (and its deep keep-alive
		// pool); only the deadline is ours. The stock DefaultTransport
		// caps idle connections at 2 per host, which forces reconnects on
		// every scatter burst wider than that.
		c.cached = &http.Client{Timeout: d, Transport: nettrace.SharedTransport()}
	}
	return c.cached
}

func (c *Client) limit() int64 {
	switch {
	case c.MessageLimit == 0:
		return DefaultMessageLimit
	case c.MessageLimit < 0:
		return 1 << 62
	default:
		return c.MessageLimit
	}
}

// Call POSTs req as a SOAP envelope to url with the given SOAPAction and
// decodes the response payload into resp (which may be nil). SOAP faults
// come back as *Fault errors; oversized requests or responses come back as
// *ErrMessageTooLarge. Overload-shed faults (IsOverloaded) are retried
// MaxRetries times with exponential backoff — safe, because the server
// refused the work before starting it.
func (c *Client) Call(ctx context.Context, url, action string, req, resp interface{}) error {
	payload, err := Marshal(req)
	if err != nil {
		return err
	}
	if int64(len(payload)) > c.limit() {
		// The sender's own serializer refuses, like the paper's workaround
		// logic did before chunking was added.
		return &ErrMessageTooLarge{Size: int64(len(payload)), Limit: c.limit()}
	}
	for attempt := 0; ; attempt++ {
		err := c.call(ctx, url, action, payload, resp)
		if !IsOverloaded(err) || attempt >= c.MaxRetries {
			return err
		}
		if err := c.sleepBackoff(ctx, attempt); err != nil {
			return err
		}
	}
}

// sleepBackoff waits the overload-retry delay for the given attempt, or
// returns early with the context's error when the caller cancels.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	if attempt < 10 {
		backoff <<= attempt
	} else {
		backoff <<= 10
	}
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// callStreamHdr performs one HTTP exchange of an already-marshalled
// request, handing back the raw body when the server streams columnar
// frames. stream additionally asks the server to produce pages
// incrementally instead of parking tail chunks.
func (c *Client) callStreamHdr(ctx context.Context, url, action string, payload []byte, resp interface{}, stream bool) (io.ReadCloser, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	httpReq.Header.Set("Content-Type", contentTypeXML)
	httpReq.Header.Set("SOAPAction", `"`+action+`"`)
	if c.Codec == CodecNegotiate {
		httpReq.Header.Set("Accept", ContentTypeColumnar)
		if stream {
			httpReq.Header.Set(streamHeader, "pages")
		}
	}
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("soap: call %s %s: %w", url, action, err)
	}
	if isColumnar(httpResp.Header.Get("Content-Type")) {
		return httpResp.Body, nil
	}
	defer httpResp.Body.Close()
	limit := c.limit()
	data, err := readBody(httpResp.Body, httpResp.ContentLength, limit)
	if err != nil {
		return nil, fmt.Errorf("soap: read response: %w", err)
	}
	if int64(len(data)) > limit {
		return nil, &ErrMessageTooLarge{Size: int64(len(data)), Limit: limit}
	}
	return nil, Unmarshal(data, resp)
}

// call performs one HTTP exchange of an already-marshalled request.
func (c *Client) call(ctx context.Context, url, action string, payload []byte, resp interface{}) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("soap: %w", err)
	}
	httpReq.Header.Set("Content-Type", contentTypeXML)
	httpReq.Header.Set("SOAPAction", `"`+action+`"`)
	bp, binOK := resp.(BinaryPayload)
	if binOK && c.Codec == CodecNegotiate {
		httpReq.Header.Set("Accept", ContentTypeColumnar)
	}
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return fmt.Errorf("soap: call %s %s: %w", url, action, err)
	}
	defer httpResp.Body.Close()
	limit := c.limit()
	data, err := readBody(httpResp.Body, httpResp.ContentLength, limit)
	if err != nil {
		return fmt.Errorf("soap: read response: %w", err)
	}
	if int64(len(data)) > limit {
		return &ErrMessageTooLarge{Size: int64(len(data)), Limit: limit}
	}
	if isColumnar(httpResp.Header.Get("Content-Type")) {
		if !binOK {
			return fmt.Errorf("soap: %s returned a columnar body for a non-columnar response type", action)
		}
		if err := bp.DecodeFrames(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("soap: columnar response: %w", err)
		}
		return nil
	}
	return Unmarshal(data, resp)
}

// Go issues Call on a new goroutine and delivers the error on the returned
// channel: the "asynchronous SOAP messages" of §5.3 used for fanning out
// performance queries.
func (c *Client) Go(ctx context.Context, url, action string, req, resp interface{}) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- c.Call(ctx, url, action, req, resp) }()
	return ch
}
