package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"skyquery/internal/dataset"
	"skyquery/internal/value"
)

type echoRequest struct {
	XMLName xml.Name `xml:"Echo"`
	Text    string   `xml:"text"`
	N       int      `xml:"n"`
}

type echoResponse struct {
	XMLName xml.Name `xml:"EchoResponse"`
	Text    string   `xml:"text"`
	N       int      `xml:"n"`
}

func newEchoServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer()
	s.Handle("urn:test:Echo", func(r *Request) (interface{}, error) {
		var req echoRequest
		if err := r.Decode(&req); err != nil {
			return nil, err
		}
		return &echoResponse{Text: req.Text, N: req.N * 2}, nil
	})
	s.Handle("urn:test:Fail", func(r *Request) (interface{}, error) {
		return nil, errors.New("deliberate failure")
	})
	s.Handle("urn:test:CustomFault", func(r *Request) (interface{}, error) {
		return nil, &Fault{Code: "soap:Client", String: "you did it wrong"}
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestCallRoundTrip(t *testing.T) {
	_, ts := newEchoServer(t)
	c := &Client{}
	var resp echoResponse
	err := c.Call(context.Background(), ts.URL, "urn:test:Echo", &echoRequest{Text: "hello <xml> & stuff", N: 21}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hello <xml> & stuff" || resp.N != 42 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestServerFaultFromError(t *testing.T) {
	_, ts := newEchoServer(t)
	c := &Client{}
	err := c.Call(context.Background(), ts.URL, "urn:test:Fail", &echoRequest{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %T: %v", err, err)
	}
	if f.Code != "soap:Server" || !strings.Contains(f.String, "deliberate failure") {
		t.Errorf("fault = %+v", f)
	}
}

func TestServerCustomFault(t *testing.T) {
	_, ts := newEchoServer(t)
	c := &Client{}
	err := c.Call(context.Background(), ts.URL, "urn:test:CustomFault", &echoRequest{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %T", err)
	}
	if f.Code != "soap:Client" || f.String != "you did it wrong" {
		t.Errorf("fault = %+v", f)
	}
}

func TestUnknownAction(t *testing.T) {
	_, ts := newEchoServer(t)
	c := &Client{}
	err := c.Call(context.Background(), ts.URL, "urn:test:Nope", &echoRequest{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %T: %v", err, err)
	}
	if !strings.Contains(f.String, "unknown SOAPAction") {
		t.Errorf("fault = %+v", f)
	}
}

func TestSOAPActionQuoting(t *testing.T) {
	// SOAPAction values arrive quoted per SOAP 1.1; the server must strip
	// the quotes (the client adds them).
	_, ts := newEchoServer(t)
	body, err := Marshal(&echoRequest{Text: "x", N: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL, strings.NewReader(string(body)))
	req.Header.Set("SOAPAction", `"urn:test:Echo"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestGETNotAllowed(t *testing.T) {
	_, ts := newEchoServer(t)
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestWSDLServed(t *testing.T) {
	s, _ := newEchoServer(t)
	s.WSDL = "<definitions>test</definitions>"
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "<definitions>") {
		t.Errorf("wsdl body = %q", sb.String())
	}
}

func TestRequestTooLarge(t *testing.T) {
	s := NewServer()
	s.MessageLimit = 512
	s.Handle("urn:test:Echo", func(r *Request) (interface{}, error) { return nil, nil })
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{MessageLimit: -1}
	big := strings.Repeat("x", 2048)
	err := c.Call(context.Background(), ts.URL, "urn:test:Echo", &echoRequest{Text: big}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got %T: %v", err, err)
	}
	if f.Detail != "MessageTooLarge" {
		t.Errorf("fault detail = %q, want MessageTooLarge", f.Detail)
	}
}

func TestClientRefusesOversizedRequest(t *testing.T) {
	c := &Client{MessageLimit: 128}
	err := c.Call(context.Background(), "http://unused.invalid", "urn:test:Echo",
		&echoRequest{Text: strings.Repeat("y", 1024)}, nil)
	var tooBig *ErrMessageTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("want ErrMessageTooLarge, got %T: %v", err, err)
	}
}

func TestClientResponseLimit(t *testing.T) {
	s := NewServer()
	s.Handle("urn:test:Big", func(r *Request) (interface{}, error) {
		return &echoResponse{Text: strings.Repeat("z", 4096)}, nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{MessageLimit: 256}
	err := c.Call(context.Background(), ts.URL, "urn:test:Big", &echoRequest{}, &echoResponse{})
	var tooBig *ErrMessageTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("want ErrMessageTooLarge, got %T: %v", err, err)
	}
	if tooBig.Limit != 256 {
		t.Errorf("limit = %d", tooBig.Limit)
	}
}

// hugeLength is a Content-Length no peer will send; the bodies below
// stop a few bytes in.
const hugeLength = 1 << 40

// TestUnlimitedReadsIgnoreDeclaredLength checks that, with no message
// limit, a Content-Length declared far beyond the bytes sent gets an
// error or a fault on both ends, and is not allocated up front.
func TestUnlimitedReadsIgnoreDeclaredLength(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		s := NewServer()
		s.MessageLimit = -1
		ran := false
		s.Handle("urn:test:Echo", func(r *Request) (interface{}, error) { ran = true; return nil, nil })
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(testEnvOpen+"<soap:Bo"))
		req.Header.Set("SOAPAction", `"urn:test:Echo"`)
		req.ContentLength = hugeLength
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		var f *Fault
		if err := Unmarshal(rec.Body.Bytes(), nil); !errors.As(err, &f) {
			t.Fatalf("want a fault, got %v (status %d)", err, rec.Code)
		}
		if ran {
			t.Error("handler ran on a truncated request")
		}
	})

	// The reply claims hugeLength bytes, sends a few, and hangs up.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(rw, "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: %d\r\n\r\n%s", int64(hugeLength), testEnvOpen)
		rw.Flush()
	}))
	defer ts.Close()
	c := &Client{MessageLimit: -1}
	t.Run("client call", func(t *testing.T) {
		if err := c.Call(context.Background(), ts.URL, "urn:test:Echo", &echoRequest{}, &echoResponse{}); err == nil {
			t.Fatal("want an error, got nil")
		}
	})
	t.Run("client stream", func(t *testing.T) {
		if _, err := OpenStream(context.Background(), c, ts.URL, "urn:test:Echo", &echoRequest{}); err == nil {
			t.Fatal("want an error, got nil")
		}
	})
}

func TestGoAsync(t *testing.T) {
	_, ts := newEchoServer(t)
	c := &Client{}
	resps := make([]echoResponse, 5)
	chans := make([]<-chan error, 5)
	for i := range chans {
		chans[i] = c.Go(context.Background(), ts.URL, "urn:test:Echo", &echoRequest{N: i}, &resps[i])
	}
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resps[i].N != i*2 {
			t.Errorf("resp[%d].N = %d", i, resps[i].N)
		}
	}
}

func TestMarshalUnmarshalEnvelope(t *testing.T) {
	data, err := Marshal(&echoRequest{Text: "abc", N: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"soap:Envelope", "soap:Body", "<Echo>", "<text>abc</text>"} {
		if !strings.Contains(s, want) {
			t.Errorf("envelope missing %q:\n%s", want, s)
		}
	}
	var req echoRequest
	if err := Unmarshal(data, &req); err != nil {
		t.Fatal(err)
	}
	if req.Text != "abc" || req.N != 7 {
		t.Errorf("req = %+v", req)
	}
}

func TestUnmarshalFault(t *testing.T) {
	data, err := Marshal(&Fault{Code: "soap:Server", String: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	err = Unmarshal(data, &echoResponse{})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	if f.String != "boom" {
		t.Errorf("fault = %+v", f)
	}
}

func TestUnmarshalBadXML(t *testing.T) {
	if err := Unmarshal([]byte("<not-an-envelope"), nil); err == nil {
		t.Error("expected error")
	}
}

func TestUnmarshalNilOut(t *testing.T) {
	data, _ := Marshal(&echoRequest{})
	if err := Unmarshal(data, nil); err != nil {
		t.Errorf("nil out should be accepted: %v", err)
	}
}

func sampleDataSet(n int) *dataset.DataSet {
	d := dataset.New(
		dataset.Column{Name: "id", Type: value.IntType},
		dataset.Column{Name: "ra", Type: value.FloatType},
	)
	for i := 0; i < n; i++ {
		d.Append([]value.Value{value.Int(int64(i)), value.Float(float64(i) / 7)})
	}
	return d
}

func TestChunkStoreRespondSingle(t *testing.T) {
	var cs ChunkStore
	d := sampleDataSet(10)
	first := cs.Respond(d, 100)
	if first.Token != "" || first.Remaining != 0 {
		t.Errorf("small set should not chunk: %+v", first)
	}
	if cs.Pending() != 0 {
		t.Error("nothing should be pending")
	}
}

func TestChunkStoreRespondFetch(t *testing.T) {
	var cs ChunkStore
	d := sampleDataSet(25)
	first := cs.Respond(d, 10)
	if first.Token == "" || first.Remaining != 2 {
		t.Fatalf("first = %+v", first)
	}
	if cs.Pending() != 1 {
		t.Error("one transfer should be pending")
	}
	second, err := cs.Fetch(first.Token)
	if err != nil {
		t.Fatal(err)
	}
	if second.Seq != 1 || second.Remaining != 1 || second.Token == "" {
		t.Errorf("second = %+v", second)
	}
	third, err := cs.Fetch(second.Token)
	if err != nil {
		t.Fatal(err)
	}
	if third.Token != "" || third.Remaining != 0 {
		t.Errorf("third = %+v", third)
	}
	if cs.Pending() != 0 {
		t.Error("transfer should be drained")
	}
	if _, err := cs.Fetch(first.Token); err == nil {
		t.Error("fetching a drained token should fail")
	}
}

func TestChunkedTransferOverHTTP(t *testing.T) {
	// End-to-end: a response that would exceed the message limit goes
	// through when chunked, and the client reassembles it exactly.
	var cs ChunkStore
	s := NewServer()
	s.MessageLimit = 64 << 10
	const rows = 20000
	s.Handle("urn:test:BigQuery", func(r *Request) (interface{}, error) {
		return cs.Respond(sampleDataSet(rows), 500), nil
	})
	s.Handle(FetchAction, cs.FetchHandler())
	ts := httptest.NewServer(s)
	defer ts.Close()

	c := &Client{MessageLimit: 64 << 10}
	var first ChunkedData
	if err := c.Call(context.Background(), ts.URL, "urn:test:BigQuery", &FetchRequest{}, &first); err != nil {
		t.Fatal(err)
	}
	got, err := FetchAll(context.Background(), c, ts.URL, &first)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != rows {
		t.Errorf("reassembled rows = %d, want %d", got.NumRows(), rows)
	}
	for i := 0; i < rows; i += 997 {
		if got.Rows[i][0].AsInt() != int64(i) {
			t.Fatalf("row %d corrupted: %v", i, got.Rows[i])
		}
	}
}

func TestMonolithicFailsWhereChunkedSucceeds(t *testing.T) {
	// The C2 experiment in miniature: same payload, same limit; the
	// monolithic response dies with MessageTooLarge, the chunked one works.
	const limit = 32 << 10
	var cs ChunkStore
	s := NewServer()
	s.MessageLimit = limit
	s.Handle("urn:test:Mono", func(r *Request) (interface{}, error) {
		return cs.Respond(sampleDataSet(5000), 0), nil // no chunking
	})
	s.Handle("urn:test:Chunked", func(r *Request) (interface{}, error) {
		return cs.Respond(sampleDataSet(5000), 500), nil
	})
	s.Handle(FetchAction, cs.FetchHandler())
	ts := httptest.NewServer(s)
	defer ts.Close()

	c := &Client{MessageLimit: limit}
	var first ChunkedData
	err := c.Call(context.Background(), ts.URL, "urn:test:Mono", &FetchRequest{}, &first)
	var tooBig *ErrMessageTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("monolithic should exceed the limit, got %v", err)
	}

	if err := c.Call(context.Background(), ts.URL, "urn:test:Chunked", &FetchRequest{}, &first); err != nil {
		t.Fatalf("chunked first call: %v", err)
	}
	got, err := FetchAll(context.Background(), c, ts.URL, &first)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 5000 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestFetchAllErrors(t *testing.T) {
	if _, err := FetchAll(context.Background(), &Client{}, "http://unused.invalid", nil); err == nil {
		t.Error("nil first chunk should fail")
	}
	if _, err := FetchAll(context.Background(), &Client{}, "http://unused.invalid", &ChunkedData{}); err == nil {
		t.Error("chunk without data should fail")
	}
}

func TestErrMessageTooLargeString(t *testing.T) {
	e := &ErrMessageTooLarge{Size: 100, Limit: 10}
	if !strings.Contains(e.Error(), "100") || !strings.Contains(e.Error(), "10") {
		t.Errorf("error = %q", e.Error())
	}
}

func TestActions(t *testing.T) {
	s, _ := newEchoServer(t)
	got := s.Actions()
	if len(got) != 3 {
		t.Errorf("Actions = %v", got)
	}
}

func TestHandlerPanicsAreNotSwallowed(t *testing.T) {
	// Document the behavior: a panicking handler propagates to the HTTP
	// layer (net/http recovers per-connection). This test just ensures the
	// server keeps serving afterwards.
	s := NewServer()
	s.Handle("urn:test:Panic", func(r *Request) (interface{}, error) { panic("boom") })
	s.Handle("urn:test:OK", func(r *Request) (interface{}, error) { return &echoResponse{N: 1}, nil })
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{}
	_ = c.Call(context.Background(), ts.URL, "urn:test:Panic", &echoRequest{}, nil) // error of some kind
	var resp echoResponse
	if err := c.Call(context.Background(), ts.URL, "urn:test:OK", &echoRequest{}, &resp); err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
}

var _ fmt.Stringer // keep fmt imported for future use

// The reference decoder: the two-pass Unmarshal the one-pass envelope
// walk replaced, kept verbatim (helpers renamed) so tests and
// FuzzUnmarshalEnvelope can compare against it.

type decodeEnvelopeRef struct {
	XMLName xml.Name `xml:"Envelope"`
	Body    struct {
		Inner []byte `xml:",innerxml"`
	} `xml:"Body"`
}

func unmarshalRef(data []byte, out interface{}) error {
	var env decodeEnvelopeRef
	if err := xml.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("soap: bad envelope: %w", err)
	}
	inner := bytes.TrimSpace(env.Body.Inner)
	if isFaultRef(inner) {
		var f Fault
		if err := xml.Unmarshal(inner, &f); err != nil {
			return fmt.Errorf("soap: bad fault: %w", err)
		}
		return &f
	}
	if out == nil || len(inner) == 0 {
		return nil
	}
	if err := xml.Unmarshal(inner, out); err != nil {
		return fmt.Errorf("soap: bad body: %w", err)
	}
	return nil
}

func isFaultRef(inner []byte) bool {
	dec := xml.NewDecoder(bytes.NewReader(inner))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if se, ok := tok.(xml.StartElement); ok {
			return se.Name.Local == "Fault"
		}
	}
}

// decodeRequestRef is the reference server-side decode: the whole
// envelope parsed first, then the captured payload into the handler's
// type.
func decodeRequestRef(data []byte, into interface{}) error {
	var env decodeEnvelopeRef
	if err := xml.Unmarshal(data, &env); err != nil {
		return &Fault{Code: "soap:Client", String: "bad envelope: " + err.Error()}
	}
	return xml.Unmarshal(bytes.TrimSpace(env.Body.Inner), into)
}

const testEnvOpen = `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">`

func testEnvelope(body string) string {
	return testEnvOpen + `<soap:Body>` + body + `</soap:Body></soap:Envelope>`
}

const testEcho = `<EchoResponse><text>hi</text><n>3</n></EchoResponse>`

// envelopeCases pins Unmarshal on hand-written envelopes: what other
// SOAP stacks send, and the malformed shapes a torn connection leaves.
var envelopeCases = []struct {
	name   string
	data   string
	nilOut bool
	// want is the decoded payload when the call succeeds; a zero value
	// means out must stay untouched.
	want echoResponse
	// fault, when set, is the *Fault the call must return.
	fault   *Fault
	wantErr bool
}{
	{name: "header before body",
		data: testEnvOpen + `<soap:Header><Auth user="u"><t>x</t></Auth></soap:Header><soap:Body>` + testEcho + `</soap:Body></soap:Envelope>`,
		want: echoResponse{Text: "hi", N: 3}},
	{name: "prolog: whitespace, declaration, comments",
		data: "\n  <?xml version=\"1.0\" encoding=\"utf-8\"?>\n<!-- sent by an old stack -->\n\t" + testEnvelope("\n  "+testEcho+"\n"),
		want: echoResponse{Text: "hi", N: 3}},
	{name: "empty body", data: testEnvOpen + `<soap:Body/></soap:Envelope>`},
	{name: "empty body, nil out", data: testEnvOpen + `<soap:Body/></soap:Envelope>`, nilOut: true},
	{name: "whitespace body", data: testEnvelope("\n \t ")},
	{name: "no body", data: testEnvOpen + `<soap:Header/></soap:Envelope>`},
	{name: "nil out skips the payload", data: testEnvelope(testEcho), nilOut: true},
	{name: "elements after the payload are ignored",
		data: testEnvelope(testEcho + `<Extra><n>9</n></Extra>`),
		want: echoResponse{Text: "hi", N: 3}},
	{name: "body in another namespace",
		data: testEnvOpen + `<x:Body xmlns:x="urn:other">` + testEcho + `</x:Body></soap:Envelope>`,
		want: echoResponse{Text: "hi", N: 3}},
	{name: "bytes after </Envelope> are ignored",
		data: testEnvelope(testEcho) + "\n<not closed <<& junk",
		want: echoResponse{Text: "hi", N: 3}},
	{name: "overloaded fault",
		data:  testEnvelope(`<Fault xmlns="http://schemas.xmlsoap.org/soap/envelope/"><faultcode>soap:Server</faultcode><faultstring>busy</faultstring><detail>Overloaded</detail></Fault>`),
		fault: &Fault{Code: "soap:Server", String: "busy", Detail: FaultDetailOverloaded}},
	{name: "overloaded fault, nil out",
		data:   testEnvelope(`<Fault xmlns="http://schemas.xmlsoap.org/soap/envelope/"><faultcode>soap:Server</faultcode><faultstring>busy</faultstring><detail>Overloaded</detail></Fault>`),
		nilOut: true,
		fault:  &Fault{Code: "soap:Server", String: "busy", Detail: FaultDetailOverloaded}},
	{name: "fault without its namespace",
		data:    testEnvelope(`<Fault><faultcode>soap:Server</faultcode><faultstring>x</faultstring></Fault>`),
		wantErr: true},
	{name: "wrong root element",
		data:    `<soap:Envelop xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body>` + testEcho + `</soap:Body></soap:Envelop>`,
		wantErr: true},
	{name: "payload of another type", data: testEnvelope(`<Other><text>hi</text></Other>`), wantErr: true},
	{name: "payload that does not parse into its type",
		data: testEnvelope(`<EchoResponse><n>three</n></EchoResponse>`), wantErr: true},
	{name: "text-only body", data: testEnvelope("stray text"), wantErr: true},
	{name: "text-only body, nil out", data: testEnvelope("stray text"), nilOut: true},
	{name: "comment-only body", data: testEnvelope("<!-- nothing -->"), wantErr: true},
	// Text is judged on the body's bytes, not on what they decode to.
	{name: "whitespace CDATA body", data: testEnvelope("<![CDATA[ ]]>"), wantErr: true},
	{name: "whitespace character reference body", data: testEnvelope("&#32;"), wantErr: true},
	{name: "truncated mid-payload", data: testEnvelope(testEcho)[:len(testEnvOpen)+30], wantErr: true},
	{name: "truncated mid-payload, nil out", data: testEnvelope(testEcho)[:len(testEnvOpen)+30], nilOut: true, wantErr: true},
	{name: "truncated after </Body>",
		data: strings.TrimSuffix(testEnvelope(testEcho), "</soap:Envelope>"), wantErr: true},
	{name: "malformed after the payload",
		data: testEnvelope(testEcho + `<Extra></Extar>`), wantErr: true},
	{name: "malformed after the fault",
		data:    testEnvelope(`<Fault xmlns="http://schemas.xmlsoap.org/soap/envelope/"><faultcode>c</faultcode><faultstring>s</faultstring></Fault><x></y>`),
		wantErr: true},
	{name: "empty input", data: "", wantErr: true},
	// The payload is decoded in its envelope's namespace scope, so a
	// fault prefixed as other SOAP stacks write it resolves. (The
	// two-pass decode cut the payload out of its envelope first and
	// failed it on the unbound prefix.)
	{name: "fault written with the envelope's prefix",
		data:  testEnvelope(`<soap:Fault><faultcode>soap:Server</faultcode><faultstring>boom</faultstring></soap:Fault>`),
		fault: &Fault{Code: "soap:Server", String: "boom"}},
	// A SOAP envelope has exactly one Body. (The two-pass decode kept
	// the last one.)
	{name: "two bodies",
		data:    testEnvOpen + `<soap:Body><EchoResponse><text>first</text></EchoResponse></soap:Body><soap:Body>` + testEcho + `</soap:Body></soap:Envelope>`,
		wantErr: true},
}

func TestUnmarshalEnvelopeEdgeCases(t *testing.T) {
	for _, tc := range envelopeCases {
		t.Run(tc.name, func(t *testing.T) {
			var got echoResponse
			var out interface{} = &got
			if tc.nilOut {
				out = nil
			}
			err := Unmarshal([]byte(tc.data), out)
			var f *Fault
			switch {
			case tc.fault != nil:
				if !errors.As(err, &f) {
					t.Fatalf("want fault %+v, got %v", tc.fault, err)
				}
				if f.Code != tc.fault.Code || f.String != tc.fault.String || f.Detail != tc.fault.Detail {
					t.Errorf("fault = %+v, want %+v", f, tc.fault)
				}
				if IsOverloaded(err) != (tc.fault.Detail == FaultDetailOverloaded) {
					t.Errorf("IsOverloaded = %v", IsOverloaded(err))
				}
			case tc.wantErr:
				if err == nil {
					t.Fatal("want an error, got nil")
				}
				if errors.As(err, &f) {
					t.Errorf("want a decode error, got fault %+v", f)
				}
			default:
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if got.Text != tc.want.Text || got.N != tc.want.N {
					t.Errorf("decoded %+v, want %+v", got, tc.want)
				}
			}
		})
	}
}

// serveRaw posts body to s under action, bypassing the client, and
// returns the decoded fault, if the reply is one.
func serveRaw(t *testing.T, s *Server, action, body string) (*httptest.ResponseRecorder, *Fault) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
	req.Header.Set("SOAPAction", `"`+action+`"`)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var f *Fault
	if err := Unmarshal(rec.Body.Bytes(), nil); err != nil && !errors.As(err, &f) {
		t.Fatalf("reply does not decode: %v\n%s", err, rec.Body.String())
	}
	return rec, f
}

func TestServeHTTPEnvelopeEdgeCases(t *testing.T) {
	s := NewServer()
	var calls, ran int
	s.Handle("urn:test:Echo", func(r *Request) (interface{}, error) {
		calls++
		var req echoRequest
		if err := r.Decode(&req); err != nil {
			return nil, err
		}
		ran++
		return &echoResponse{Text: req.Text, N: req.N * 2}, nil
	})
	full, err := Marshal(&echoRequest{Text: "abc", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	mid := bytes.Index(full, []byte("<n>"))

	for _, tc := range []struct {
		name string
		body string
		// early: the fault comes before any handler is called.
		early       bool
		faultCode   string // "" for a reply
		faultPrefix string
	}{
		{name: "truncated mid-payload", body: string(full[:mid+2]),
			faultCode: "soap:Client", faultPrefix: "bad envelope"},
		{name: "truncated before the body", body: testEnvOpen + `<soap:Bo`,
			early: true, faultCode: "soap:Client", faultPrefix: "bad envelope"},
		{name: "malformed after the payload",
			body:      testEnvOpen + `<soap:Body><Echo><text>abc</text></Echo><x></y></soap:Body></soap:Envelope>`,
			faultCode: "soap:Client", faultPrefix: "bad envelope"},
		{name: "wrong root", body: `<Envelop><Body><Echo/></Body></Envelop>`,
			early: true, faultCode: "soap:Client", faultPrefix: "bad envelope"},
		{name: "empty body", body: testEnvOpen + `<soap:Body/></soap:Envelope>`,
			faultCode: "soap:Server", faultPrefix: `soap: decode request for "urn:test:Echo": EOF`},
		{name: "payload of another type", body: testEnvelope(`<Other/>`),
			faultCode: "soap:Server", faultPrefix: `soap: decode request for "urn:test:Echo"`},
		{name: "header before body",
			body: testEnvOpen + `<soap:Header><Auth>x</Auth></soap:Header><soap:Body><Echo><text>abc</text><n>4</n></Echo></soap:Body></soap:Envelope>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls, ran = 0, 0
			rec, f := serveRaw(t, s, "urn:test:Echo", tc.body)
			if tc.early && calls != 0 {
				t.Errorf("handler called %d times, want none", calls)
			}
			if tc.faultCode == "" {
				if f != nil {
					t.Fatalf("unexpected fault %+v", f)
				}
				var resp echoResponse
				if err := Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Text != "abc" || resp.N != 8 {
					t.Errorf("reply = %+v, %v", resp, err)
				}
				return
			}
			if ran != 0 {
				t.Error("handler worked past a failed Decode")
			}
			if f == nil {
				t.Fatalf("want a %s fault, got status %d: %s", tc.faultCode, rec.Code, rec.Body.String())
			}
			if f.Code != tc.faultCode || !strings.HasPrefix(f.String, tc.faultPrefix) {
				t.Errorf("fault = %+v, want %s %q…", f, tc.faultCode, tc.faultPrefix)
			}
		})
	}
}

func TestRequestDecodeOnce(t *testing.T) {
	data, err := Marshal(&echoRequest{Text: "x", N: 1})
	if err != nil {
		t.Fatal(err)
	}
	env, err := openEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	r := &Request{Action: "urn:test:Echo", env: env}
	var req echoRequest
	if err := r.Decode(&req); err != nil || req.Text != "x" || req.N != 1 {
		t.Fatalf("first Decode = %+v, %v", req, err)
	}
	if err := r.Decode(&req); err == nil {
		t.Error("second Decode succeeded")
	}
}

// mixedDataSet is an n-row int/float/string set.
func mixedDataSet(n int) *dataset.DataSet {
	d := dataset.New(
		dataset.Column{Name: "id", Type: value.IntType},
		dataset.Column{Name: "ra", Type: value.FloatType},
		dataset.Column{Name: "type", Type: value.StringType},
	)
	for i := 0; i < n; i++ {
		d.Append([]value.Value{value.Int(int64(i)), value.Float(float64(i) / 7), value.String(fmt.Sprintf("GALAXY-%d", i%13))})
	}
	return d
}

// TestUnmarshalEnvelopeAllocs holds the envelope to a constant cost: an
// XML DataSet reply must allocate no more than decoding the bare
// payload does (a second pass over the body doubles it).
func TestUnmarshalEnvelopeAllocs(t *testing.T) {
	d := mixedDataSet(2000)
	env, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	if err := d.EncodeXML(&bare); err != nil {
		t.Fatal(err)
	}
	viaEnvelope := testing.AllocsPerRun(5, func() {
		if err := Unmarshal(env, &dataset.DataSet{}); err != nil {
			t.Fatal(err)
		}
	})
	direct := testing.AllocsPerRun(5, func() {
		if _, err := dataset.DecodeXML(bytes.NewReader(bare.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if ratio := viaEnvelope / direct; ratio > 1.05 {
		t.Errorf("Unmarshal allocates %.0f per call, %.2f× the bare payload decode's %.0f; want ≤ 1.05×", viaEnvelope, ratio, direct)
	}
}

func BenchmarkUnmarshalEnvelope(b *testing.B) {
	env, err := Marshal(mixedDataSet(2000))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(env)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Unmarshal(env, &dataset.DataSet{}); err != nil {
			b.Fatal(err)
		}
	}
}

// replyServer serves one DataSet reply per request, whose size the
// request's N picks, and a fault for N < 0. Each set is built once, so a
// benchmark of the server counts the reply's marshalling, not the set's
// construction; callers serve one request at a time.
func replyServer() *Server {
	s := NewServer()
	sets := map[int]*dataset.DataSet{}
	s.Handle("urn:test:Rows", func(r *Request) (interface{}, error) {
		var req echoRequest
		if err := r.Decode(&req); err != nil {
			return nil, err
		}
		if req.N < 0 {
			return nil, &Fault{Code: "soap:Client", String: "negative <size> & " + req.Text}
		}
		if sets[req.N] == nil {
			sets[req.N] = mixedDataSet(req.N)
		}
		return sets[req.N], nil
	})
	return s
}

func replyRequest(tb testing.TB, n int) *http.Request {
	tb.Helper()
	body, err := Marshal(&echoRequest{Text: "rows", N: n})
	if err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	req.Header.Set("SOAPAction", "urn:test:Rows")
	return req
}

// TestPooledReplyBytes holds server replies built in pooled buffers to
// the bytes Marshal builds in a fresh one, across buffers reused dirty:
// a large reply, smaller ones, a fault, and a reply too large to pool.
func TestPooledReplyBytes(t *testing.T) {
	s := replyServer()
	for _, n := range []int{2000, 3, 0, -1, 500, 60000, 7} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, replyRequest(t, n))
		var want []byte
		var err error
		if n < 0 {
			want, err = Marshal(&Fault{Code: "soap:Client", String: "negative <size> & rows"})
		} else {
			want, err = Marshal(mixedDataSet(n))
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: pooled reply (%d bytes) differs from Marshal (%d bytes)", n, len(got), len(want))
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("n=%d: Content-Length %s, want %d", n, cl, len(want))
		}
	}
}

// discardResponse is a ResponseWriter that drops the body, so a benchmark
// of the server counts only the server's own allocation.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkServeXMLReply measures the server side of one XML DataSet
// reply: decode the request, run the handler, marshal and send the reply.
func BenchmarkServeXMLReply(b *testing.B) {
	s := replyServer()
	body, err := Marshal(&echoRequest{Text: "rows", N: 2000})
	if err != nil {
		b.Fatal(err)
	}
	w := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		req.Header.Set("SOAPAction", "urn:test:Rows")
		s.ServeHTTP(w, req)
	}
}

// FuzzUnmarshalEnvelope checks the one-pass envelope decode against the
// two-pass reference, on the client (Unmarshal) and the server
// (openEnvelope + Request.Decode) side: both must agree on error versus
// success and on the decoded value, and Unmarshal on fault versus
// payload. (A server-side request whose payload misfits its type before
// a later syntax error gets the decode error, not the reference's
// "bad envelope" fault: Decode stops at the first error it meets.) Two
// differences are legitimate and skipped: an envelope with a second
// Body (rejected now; the reference kept the last), and a Fault that
// relies on a namespace declared on Envelope or Body, which the
// reference, decoding the payload cut out of its envelope, cannot
// resolve. For the same reason XMLName.Space is cleared before values
// are compared.
func FuzzUnmarshalEnvelope(f *testing.F) {
	for _, payload := range []interface{}{
		&ChunkedData{Token: "tok", Seq: 1, Remaining: 2, Data: mixedDataSet(3)},
		&Fault{Code: "soap:Server", String: "busy", Detail: FaultDetailOverloaded},
		&echoResponse{Text: "a <b> & c", N: -7},
	} {
		data, err := Marshal(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range envelopeCases {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range []func() interface{}{
			func() interface{} { return nil },
			func() interface{} { return new(ChunkedData) },
			func() interface{} { return new(echoResponse) },
		} {
			got, want := mk(), mk()
			errGot, errWant := Unmarshal(data, got), unmarshalRef(data, want)
			if twoBodies(errGot) || envelopeScopedFault(errGot, errWant) {
				continue
			}
			checkSameDecode(t, "Unmarshal", errGot, errWant, got, want, true)
			if got == nil {
				continue
			}
			got, want = mk(), mk()
			errGot = decodeRequest(data, got)
			errWant = decodeRequestRef(data, want)
			if twoBodies(errGot) {
				continue
			}
			checkSameDecode(t, "Request.Decode", errGot, errWant, got, want, false)
		}
	})
}

// decodeRequest is the server's decode path: ServeHTTP's openEnvelope,
// then the handler's Decode.
func decodeRequest(data []byte, into interface{}) error {
	env, err := openEnvelope(data)
	if err != nil {
		return &Fault{Code: "soap:Client", String: "bad envelope: " + err.Error()}
	}
	return (&Request{env: env}).Decode(into)
}

func twoBodies(err error) bool {
	var se *xml.SyntaxError
	return errors.As(err, &se) && se.Msg == errTwoBodiesMsg
}

func envelopeScopedFault(errGot, errWant error) bool {
	var f *Fault
	return errors.As(errGot, &f) && errWant != nil &&
		strings.HasPrefix(errWant.Error(), "soap: bad fault: expected element <Fault> in name space")
}

func checkSameDecode(t *testing.T, path string, errGot, errWant error, got, want interface{}, faults bool) {
	t.Helper()
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%s: error %v, reference error %v", path, errGot, errWant)
	}
	var fGot, fWant *Fault
	if faults && errors.As(errGot, &fGot) != errors.As(errWant, &fWant) {
		t.Fatalf("%s: error %v, reference error %v", path, errGot, errWant)
	}
	if fGot != nil && *fGot != *fWant {
		t.Fatalf("%s: fault %+v, reference fault %+v", path, fGot, fWant)
	}
	if errGot == nil && got != nil {
		if g, w := canonicalXML(t, got), canonicalXML(t, want); g != w {
			t.Fatalf("%s: decoded\n%s\nreference decoded\n%s", path, g, w)
		}
	}
}

// canonicalXML renders a decoded value for comparison (through the
// value codec, so NaN cells compare equal), namespace context cleared.
func canonicalXML(t *testing.T, v interface{}) string {
	switch v := v.(type) {
	case *ChunkedData:
		c := *v
		c.XMLName.Space = ""
		v = &c
	case *echoResponse:
		c := *v
		c.XMLName.Space = ""
		v = &c
	}
	data, err := xml.Marshal(v)
	if err != nil {
		t.Fatalf("re-marshal %T: %v", v, err)
	}
	return string(data)
}
