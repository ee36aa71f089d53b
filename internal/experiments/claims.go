package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	"skyquery"
	"skyquery/internal/dataset"
	"skyquery/internal/plan"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
	"skyquery/internal/sphere"
	"skyquery/internal/storage"
	"skyquery/internal/value"
)

// skewedFederation builds archives with very different densities so the
// ordering decision matters.
func skewedFederation(bodies int) (*skyquery.Federation, error) {
	return skyquery.Launch(skyquery.Options{
		Bodies: bodies,
		Surveys: []skyquery.SurveySpec{
			{Name: "DEEP", SigmaArcsec: 0.1, Completeness: 0.98, Seed: 31},
			{Name: "MID", SigmaArcsec: 0.2, Completeness: 0.55, Seed: 32},
			{Name: "SPARSE", SigmaArcsec: 0.4, Completeness: 0.12, Seed: 33},
		},
	})
}

const skewedQuery = `
	SELECT d.object_id, m.object_id, s.object_id
	FROM DEEP:PhotoObject d, MID:PhotoObject m, SPARSE:PhotoObject s
	WHERE AREA(185.0, -0.5, 900) AND XMATCH(d, m, s) < 3.5`

// runPlanDirect kicks off a prepared plan at its first step's node and
// drains the result, so experiments can execute arbitrary step orders.
func runPlanDirect(fed *skyquery.Federation, p *plan.Plan) (int, error) {
	c := &soap.Client{HTTPClient: fed.Transport.Client()}
	var first soap.ChunkedData
	if err := c.Call(context.Background(), p.Steps[0].Endpoint, skynode.ActionCrossMatch,
		&skynode.CrossMatchRequest{Plan: *p}, &first); err != nil {
		return 0, err
	}
	ds, err := soap.FetchAll(context.Background(), c, p.Steps[0].Endpoint, &first)
	if err != nil {
		return 0, err
	}
	return ds.NumRows(), nil
}

// C1PlanOrdering measures the §5.3 claim that visiting archives in
// decreasing count-star order reduces transmission cost, against the
// worst (increasing) and a fixed arbitrary order.
func C1PlanOrdering() (*Table, error) {
	fed, err := skewedFederation(4000)
	if err != nil {
		return nil, err
	}
	defer fed.Close()

	base, err := fed.BuildPlan(context.Background(), skewedQuery)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "C1",
		Title:  "§5.3 count-star ordering vs other chain orders (bytes shipped)",
		Header: []string{"order", "chain (call order)", "matches", "bytes on wire", "requests"},
	}
	orders := []struct {
		name    string
		permute func([]plan.Step) []plan.Step
	}{
		{"count-star (optimizer)", func(s []plan.Step) []plan.Step { return s }},
		{"worst (increasing count)", reverseSteps},
		{"arbitrary (rotated)", rotateSteps},
	}
	for _, o := range orders {
		p := *base
		p.Steps = o.permute(append([]plan.Step(nil), base.Steps...))
		fed.Transport.Reset()
		matches, err := runPlanDirect(fed, &p)
		if err != nil {
			return nil, err
		}
		stats := fed.Transport.Stats()
		t.Add(o.name, p.String(), matches, stats.Total(), stats.Requests)
	}
	t.Notes = append(t.Notes,
		"expected shape: the optimizer's order ships the fewest bytes; the gap grows with archive skew")
	return t, nil
}

func reverseSteps(s []plan.Step) []plan.Step {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// rotateSteps moves the first step to the end: an order that is neither
// the optimizer's choice nor the worst case.
func rotateSteps(s []plan.Step) []plan.Step {
	if len(s) < 2 {
		return s
	}
	return append(s[1:], s[0])
}

// C2Chunking reproduces the §6 experience: the XML parser dies at ~10 MB
// unless large results are chunked. A result set larger than the message
// limit is served monolithically (fails) and at several chunk sizes
// (succeeds), measuring throughput.
func C2Chunking() (*Table, error) {
	const limit = 2 << 20 // a scaled-down "10 MB parser"
	const rows = 60000    // ~4.5 MB of XML

	ds := dataset.New(
		dataset.Column{Name: "object_id", Type: value.IntType},
		dataset.Column{Name: "ra", Type: value.FloatType},
		dataset.Column{Name: "dec", Type: value.FloatType},
	)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < rows; i++ {
		ds.Append([]value.Value{
			value.Int(int64(i)), value.Float(rng.Float64() * 360), value.Float(rng.Float64()*180 - 90),
		})
	}
	totalXML := ds.XMLSize()

	var cs soap.ChunkStore
	srv := soap.NewServer()
	srv.MessageLimit = limit
	chunkRows := 0 // set per call below via closure variable
	srv.Handle("urn:exp:Big", func(r *soap.Request) (interface{}, error) {
		return cs.Respond(ds, chunkRows), nil
	})
	srv.Handle(soap.FetchAction, cs.FetchHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String()

	t := &Table{
		ID:     "C2",
		Title:  fmt.Sprintf("§6 chunking workaround (result: %d rows, %d B of XML; parser limit %d B)", rows, totalXML, limit),
		Header: []string{"strategy", "messages", "outcome", "rows delivered", "time"},
	}
	c := &soap.Client{MessageLimit: limit}
	for _, cr := range []int{0, 40000, 20000, 5000, 1000} {
		chunkRows = cr
		name := fmt.Sprintf("chunks of %d rows", cr)
		if cr == 0 {
			name = "monolithic (no chunking)"
		}
		start := time.Now()
		var first soap.ChunkedData
		err := c.Call(context.Background(), url, "urn:exp:Big", &soap.FetchRequest{}, &first)
		if err != nil {
			var tooBig *soap.ErrMessageTooLarge
			var fault *soap.Fault
			if errors.As(err, &tooBig) || (errors.As(err, &fault) && fault.Detail == "MessageTooLarge") {
				t.Add(name, 1, "FAILS: parser limit exceeded", 0, time.Since(start))
				continue
			}
			return nil, err
		}
		got, err := soap.FetchAll(context.Background(), c, url, &first)
		if err != nil {
			var tooBig *soap.ErrMessageTooLarge
			if errors.As(err, &tooBig) {
				t.Add(name, 1, "FAILS: parser limit exceeded", 0, time.Since(start))
				continue
			}
			return nil, err
		}
		messages := (rows + cr - 1) / cr
		t.Add(name, messages, "ok", got.NumRows(), time.Since(start))
	}
	t.Notes = append(t.Notes,
		"expected shape: monolithic transfer dies at the parser limit (the paper's ~10 MB failure);",
		"chunked transfers always succeed, with small chunks paying more per-message overhead")
	return t, nil
}

// C3HTMRange measures §5.4's premise that the HTM index makes range
// searches efficient, against a full table scan, across radii.
func C3HTMRange() (*Table, error) {
	const n = 200000
	tab, err := storage.NewTable("PhotoObject", storage.Schema{
		{Name: "id", Type: value.IntType},
		{Name: "ra", Type: value.FloatType},
		{Name: "dec", Type: value.FloatType},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < n; i++ {
		// Uniform on the sphere.
		z := 2*rng.Float64() - 1
		ra := rng.Float64() * 360
		dec := sphere.DegPerRad * math.Asin(z)
		if err := tab.Append(value.Int(int64(i)), value.Float(ra), value.Float(dec)); err != nil {
			return nil, err
		}
	}
	if err := tab.EnableSpatial(storage.SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "C3",
		Title:  fmt.Sprintf("§5.4 HTM range search vs full scan (%d objects uniform on the sphere)", n),
		Header: []string{"radius", "rows in range", "HTM time", "scan time", "speedup"},
	}
	for _, radius := range []float64{sphere.Arcsec(10), sphere.Arcsec(60), 0.1, 1, 10, 45} {
		c := sphere.NewCap(180, 0, radius)
		// HTM search.
		startHTM := time.Now()
		reps := 5
		var htmRows int
		sb := &storage.SearchBatch{Rows: make([]int, 0, 1024)}
		for r := 0; r < reps; r++ {
			htmRows = 0
			if err := tab.SearchCapBatch(c, sb, func(rows []int, _ []sphere.Vec) bool { htmRows += len(rows); return true }); err != nil {
				return nil, err
			}
		}
		htmTime := time.Since(startHTM) / time.Duration(reps)
		// Full scan.
		startScan := time.Now()
		var scanRows int
		for r := 0; r < reps; r++ {
			scanRows = 0
			tab.Scan(func(row int) bool {
				ra, _ := tab.Value(row, 1).AsFloat()
				dec, _ := tab.Value(row, 2).AsFloat()
				if c.Contains(sphere.FromRaDec(ra, dec)) {
					scanRows++
				}
				return true
			})
		}
		scanTime := time.Since(startScan) / time.Duration(reps)
		if htmRows != scanRows {
			return nil, fmt.Errorf("C3: HTM found %d rows, scan %d", htmRows, scanRows)
		}
		speedup := float64(scanTime) / float64(htmTime)
		t.Add(formatRadius(radius), htmRows, htmTime, scanTime, fmt.Sprintf("%.1fx", speedup))
	}
	t.Notes = append(t.Notes,
		"expected shape: orders of magnitude at arcsecond radii, converging to ~1x as the cap covers the sky")
	return t, nil
}

func formatRadius(deg float64) string {
	as := sphere.ToArcsec(deg)
	switch {
	case as < 120:
		return fmt.Sprintf("%.0f\"", as)
	case deg < 2:
		return fmt.Sprintf("%.0f'", as/60)
	default:
		return fmt.Sprintf("%.0f deg", deg)
	}
}

// C4SOAPOverhead quantifies §6's observation that SOAP/XML serialization
// is the cost of web services, against a binary (gob) baseline.
func C4SOAPOverhead() (*Table, error) {
	const rows = 10000
	ds := dataset.New(
		dataset.Column{Name: "object_id", Type: value.IntType},
		dataset.Column{Name: "ra", Type: value.FloatType},
		dataset.Column{Name: "dec", Type: value.FloatType},
		dataset.Column{Name: "flux", Type: value.FloatType},
		dataset.Column{Name: "type", Type: value.StringType},
	)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < rows; i++ {
		typ := "STAR"
		if i%3 == 0 {
			typ = "GALAXY"
		}
		ds.Append([]value.Value{
			value.Int(int64(i)), value.Float(rng.Float64() * 360),
			value.Float(rng.Float64()*180 - 90), value.Float(rng.Float64() * 30),
			value.String(typ),
		})
	}

	t := &Table{
		ID:     "C4",
		Title:  fmt.Sprintf("§6 SOAP/XML serialization overhead vs binary (%d-row result set)", rows),
		Header: []string{"encoding", "bytes", "encode", "decode", "size vs binary"},
	}
	const reps = 10
	measure := func(enc func() ([]byte, error), dec func([]byte) error) (int, time.Duration, time.Duration, error) {
		var data []byte
		var err error
		start := time.Now()
		for i := 0; i < reps; i++ {
			data, err = enc()
			if err != nil {
				return 0, 0, 0, err
			}
		}
		encTime := time.Since(start) / reps
		start = time.Now()
		for i := 0; i < reps; i++ {
			if err := dec(data); err != nil {
				return 0, 0, 0, err
			}
		}
		decTime := time.Since(start) / reps
		return len(data), encTime, decTime, nil
	}

	xmlBytes, xmlEnc, xmlDec, err := measure(
		func() ([]byte, error) {
			var buf bytes.Buffer
			err := ds.EncodeXML(&buf)
			return buf.Bytes(), err
		},
		func(data []byte) error {
			_, err := dataset.DecodeXML(bytes.NewReader(data))
			return err
		})
	if err != nil {
		return nil, err
	}
	binBytes, binEnc, binDec, err := measure(
		func() ([]byte, error) {
			var buf bytes.Buffer
			err := ds.EncodeBinary(&buf)
			return buf.Bytes(), err
		},
		func(data []byte) error {
			_, err := dataset.DecodeBinary(bytes.NewReader(data))
			return err
		})
	if err != nil {
		return nil, err
	}
	t.Add("SOAP/XML (DataSet)", xmlBytes, xmlEnc, xmlDec, fmt.Sprintf("%.1fx", float64(xmlBytes)/float64(binBytes)))
	t.Add("binary (gob, CORBA-style)", binBytes, binEnc, binDec, "1.0x")
	t.Notes = append(t.Notes,
		"expected shape: XML is several times larger and slower — the price the paper accepts for interoperability")
	return t, nil
}
