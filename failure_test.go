package skyquery

// Failure-injection tests: the federation is distributed, so mid-chain
// node failures, oversized messages, and concurrent clients are part of
// the contract.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"skyquery/internal/portal"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
	"skyquery/internal/value"
)

func TestNodeDeathMidChainSurfacesError(t *testing.T) {
	// A mid-chain node dies (its endpoint becomes unreachable after
	// planning): the chain must fail loudly, not hang or return partial
	// results.
	f := launch(t, Options{Bodies: 300})
	p, err := f.BuildPlan(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	sabotaged := ""
	for i := range p.Steps {
		// Kill a node that is neither first (the portal would fail before
		// any chain work) nor last (the seed).
		if i == 1 {
			sabotaged = p.Steps[i].Archive
			p.Steps[i].Endpoint = "http://127.0.0.1:1/dead"
		}
	}
	if err := execPlan(f, p); err == nil {
		t.Fatal("chain with a dead node should fail")
	} else if !strings.Contains(err.Error(), sabotaged) {
		t.Errorf("error does not identify the dead node %s: %v", sabotaged, err)
	}
}

// execPlan kicks off a plan at its first step's node over SOAP.
func execPlan(f *Federation, p *Plan) error {
	c := &soap.Client{HTTPClient: f.Transport.Client()}
	var first soap.ChunkedData
	if err := c.Call(context.Background(), p.Steps[0].Endpoint, skynode.ActionCrossMatch,
		&skynode.CrossMatchRequest{Plan: *p}, &first); err != nil {
		return err
	}
	_, err := soap.FetchAll(context.Background(), c, p.Steps[0].Endpoint, &first)
	return err
}

func TestQueryAfterFederationClose(t *testing.T) {
	f, err := Launch(Options{Bodies: 100, Surveys: DefaultSurveys()[:2]})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Query(context.Background(), testQuery); err == nil {
		t.Error("query against a closed federation should fail")
	}
}

func TestConcurrentQueries(t *testing.T) {
	f := launch(t, Options{Bodies: 400})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	rowCounts := make(chan int, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Query(context.Background(), testQuery)
			if err != nil {
				errs <- err
				return
			}
			rowCounts <- res.NumRows()
		}()
	}
	wg.Wait()
	close(errs)
	close(rowCounts)
	for err := range errs {
		t.Fatal(err)
	}
	var first = -1
	for n := range rowCounts {
		if first == -1 {
			first = n
		} else if n != first {
			t.Fatalf("concurrent queries disagree: %d vs %d", n, first)
		}
	}
	if first <= 0 {
		t.Fatal("no rows")
	}
}

func TestChunkedChainTransfers(t *testing.T) {
	// Force tiny chunks and make the buffered (non-streaming) SOAP call
	// an old client makes: the final relay must reassemble across many
	// Fetch calls. Streaming clients bypass this path — it is the
	// fallback wire, and it must keep working.
	const q = `
		SELECT O.object_id, T.object_id
		FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T) < 3.5`
	f := launch(t, Options{Bodies: 500, ChunkRows: 25, RecordCalls: true})
	sc := f.Client().SOAP
	var first soap.ChunkedData
	if err := sc.Call(context.Background(), f.PortalURL, portal.ActionSkyQuery, &portal.SkyQueryRequest{SQL: q}, &first); err != nil {
		t.Fatal(err)
	}
	res, err := soap.FetchAll(context.Background(), sc, f.PortalURL, &first)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() < 100 {
		t.Fatalf("rows = %d; fixture too small to exercise chunking", res.NumRows())
	}
	fetches := 0
	for _, call := range f.Transport.Calls() {
		if strings.HasSuffix(call.Action, ":Fetch") {
			fetches++
		}
	}
	if fetches < 5 {
		t.Errorf("only %d Fetch calls; chunking not exercised", fetches)
	}
	// Compare against an unchunked federation: same answer.
	f2 := launch(t, Options{Bodies: 500})
	res2, err := f2.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != res2.NumRows() {
		t.Errorf("chunked rows = %d, unchunked = %d", res.NumRows(), res2.NumRows())
	}
}

func TestMessageLimitKillsBigUnchunkedResult(t *testing.T) {
	// A federation whose servers accept only tiny messages but whose
	// chunking is disabled-ish (huge ChunkRows): the chain transfer must
	// fail with the parser-limit error, reproducing §6 before the
	// workaround existed. It runs on the paper's XML wire, where every
	// transfer is a message; a binary hop streams its pages, and a
	// stream has no message to limit.
	f, err := Launch(Options{
		Bodies:       800,
		MessageLimit: 16 << 10, // 16 KB "parser"
		ChunkRows:    1 << 20,  // effectively no chunking
		Codec:        CodecXML,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Query(context.Background(), `
		SELECT O.object_id, T.object_id
		FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T) < 3.5`)
	if err == nil {
		t.Fatal("oversized unchunked transfer should fail")
	}
	if !strings.Contains(err.Error(), "exceeds the XML parser limit") {
		t.Errorf("err = %v", err)
	}
	// The same federation with sane chunking succeeds.
	f2, err := Launch(Options{
		Bodies:       800,
		MessageLimit: 16 << 10,
		ChunkRows:    50,
		Codec:        CodecXML,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	res, err := f2.Query(context.Background(), `
		SELECT O.object_id, T.object_id
		FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T) < 3.5`)
	if err != nil {
		t.Fatalf("chunked transfer under the same limit failed: %v", err)
	}
	if res.NumRows() == 0 {
		t.Error("no rows")
	}
}

func TestEmptyAreaYieldsEmptyResult(t *testing.T) {
	f := launch(t, Options{Bodies: 200})
	// An AREA on the opposite side of the sky.
	res, err := f.Query(context.Background(), `
		SELECT O.object_id, T.object_id
		FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(5.0, 0.5, 900) AND XMATCH(O, T) < 3.5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", res.NumRows())
	}
	if len(res.Columns) != 2 {
		t.Errorf("empty result should still carry the schema: %v", res.Columns)
	}
}

func TestNullsSurviveTheChain(t *testing.T) {
	// An archive with NULL fluxes: values must survive the wire and
	// projection without being invented.
	db := NewDB()
	tab, err := db.Create("Obs", Schema{
		{Name: "id", Type: value.IntType},
		{Name: "ra", Type: value.FloatType},
		{Name: "dec", Type: value.FloatType},
		{Name: "flux", Type: value.FloatType},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		fluxVal := Value(value.Float(float64(i)))
		if i%2 == 0 {
			fluxVal = value.Null
		}
		if err := tab.Append(value.Int(int64(i)), value.Float(185.0+float64(i)*0.001),
			value.Float(-0.5), fluxVal); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	f := launch(t, Options{
		Surveys: []SurveySpec{{Name: "REF", SigmaArcsec: 0.2, Completeness: 1, Seed: 5}},
		Bodies:  50,
		Nodes: []NodeSpec{{Name: "NULLY", DB: db, PrimaryTable: "Obs",
			RACol: "ra", DecCol: "dec", SigmaArcsec: 0.2}},
	})
	res, err := f.Query(context.Background(), `SELECT n.id, n.flux FROM NULLY:Obs n, REF:PhotoObject r
		WHERE AREA(185.0, -0.5, 900) AND XMATCH(n, r) < 3.5`)
	if err != nil {
		t.Fatal(err)
	}
	sawNull, sawValue := false, false
	for _, row := range res.Rows {
		if row[1].IsNull() {
			sawNull = true
		} else {
			sawValue = true
		}
	}
	// Depending on random overlap we may not match all rows, but with a
	// dense reference survey both kinds should appear.
	if res.NumRows() > 4 && (!sawNull || !sawValue) {
		t.Errorf("null round trip suspicious: %d rows, null=%v value=%v",
			res.NumRows(), sawNull, sawValue)
	}
}
