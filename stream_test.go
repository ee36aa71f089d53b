package skyquery

// End-to-end streaming tests. PR 8 streams pages over the columnar wire
// through the whole federation — seed node -> chain -> portal -> client
// iterator — with the buffered chunked transfer as the fallback. These
// tests hold the streamed wire to three contracts: bit-identity with the
// folded path over the golden corpus at every parallelism x batch-size
// combination, typed (never silent) mid-chain failure, and O(page) peak
// memory with first rows delivered before the transfer has finished
// being produced.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skyquery/internal/dataset"
	"skyquery/internal/eval"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
)

var benchStreamJSON = flag.String("bench-stream-json", "", "merge the streaming bounded-memory drill into this BENCH_scan.json")

// TestStreamGoldenDifferential drains every corpus query row by row off
// the streaming client iterator and compares it, and the folded
// execution, against the checked-in golden, across chain parallelism
// {1,4} and scan batch size {1,3,1024} on the unsharded federation
// (runCorpus; TestShardedGoldenCorpus runs the same at 2 and 8 shards).
func TestStreamGoldenDifferential(t *testing.T) {
	files := goldenQueries(t)
	defer eval.SetBatchSize(eval.BatchSize())
	for _, par := range []int{1, 4} {
		f := launch(t, Options{Bodies: 400, Parallelism: par})
		for _, bs := range []int{1, 3, eval.DefaultBatchSize} {
			eval.SetBatchSize(bs)
			runCorpus(t, f, files, fmt.Sprintf("par=%d/batch=%d", par, bs))
		}
		f.Close()
	}
}

// TestStreamMidChainNodeDeathTypedError kills a mid-chain node after
// planning and consumes the chain as a stream. By then the first node's
// response has already started, so the failure cannot be an HTTP fault —
// it must arrive in-band as a typed *dataset.StreamError naming the dead
// node, never as a silently truncated result.
func TestStreamMidChainNodeDeathTypedError(t *testing.T) {
	f := launch(t, Options{Bodies: 300})
	p, err := f.BuildPlan(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) < 3 {
		t.Fatalf("plan has %d steps; fixture too small", len(p.Steps))
	}
	sabotaged := p.Steps[1].Archive
	p.Steps[1].Endpoint = "http://127.0.0.1:1/dead"

	c := &soap.Client{HTTPClient: f.Transport.Client()}
	var streamErr *dataset.StreamError
	ps, err := soap.OpenStream(context.Background(), c, p.Steps[0].Endpoint, skynode.ActionCrossMatch,
		&skynode.CrossMatchRequest{Plan: *p})
	if err != nil {
		// The error frame can land before the schema frame; OpenStream
		// then surfaces it directly.
		if !errors.As(err, &streamErr) {
			t.Fatalf("open error is %T (%v), want *dataset.StreamError", err, err)
		}
	} else {
		defer ps.Close()
		for streamErr == nil {
			page, err := ps.Next()
			if err != nil {
				if !errors.As(err, &streamErr) {
					t.Fatalf("stream error is %T (%v), want *dataset.StreamError", err, err)
				}
				break
			}
			if page == nil {
				t.Fatal("stream ended cleanly despite a dead mid-chain node (silent truncation)")
			}
		}
	}
	if !strings.Contains(streamErr.Msg, sabotaged) {
		t.Errorf("error does not identify the dead node %s: %v", sabotaged, streamErr)
	}
}

// streamMemResult is one bounded-memory drill measurement: the same
// fat-payload federated cross-match consumed once through the streaming
// client iterator and once through the folded whole-result path, with
// peak heap sampled across the entire in-process federation (portal +
// both nodes + client) for each.
type streamMemResult struct {
	Rows            int     `json:"rows"`
	Pages           int     `json:"pages"`
	ChunkRows       int     `json:"chunk_rows"`
	StreamPeakBytes uint64  `json:"stream_peak_heap_bytes"`
	FoldPeakBytes   uint64  `json:"folded_peak_heap_bytes"`
	Ratio           float64 `json:"folded_over_stream"`
	FirstRowEarly   bool    `json:"first_row_before_producer_done"`
}

// runStreamMemDrill builds a two-node federation whose cross-match
// result is >= 100x ChunkRows with a fat payload column, and measures
// streamed-vs-folded peak heap plus whether the first row reaches the
// client while the first-step node is still producing.
func runStreamMemDrill(t testing.TB) streamMemResult {
	const (
		payloadLen = 4096
		dup        = 4  // BIG objects per sky position
		chunkRows  = 64 // tiny pages => many pages per transfer
	)

	// Distinct sky positions on a ~25-arcsec grid inside the query area:
	// far enough apart that only same-position objects cross-match.
	type pos struct{ ra, dec float64 }
	var positions []pos
	for gy := -30; gy <= 30; gy++ {
		for gx := -30; gx <= 30; gx++ {
			dra, ddec := float64(gx)*0.007, float64(gy)*0.007
			if math.Sqrt(dra*dra+ddec*ddec) > 0.2 {
				continue
			}
			positions = append(positions, pos{185.0 + dra, -0.5 + ddec})
		}
	}

	seedDB := NewDB()
	seedTab, err := seedDB.Create("Objects", Schema{
		{Name: "object_id", Type: IntType},
		{Name: "ra", Type: FloatType},
		{Name: "dec", Type: FloatType},
	})
	if err != nil {
		t.Fatal(err)
	}
	bigDB := NewDB()
	bigTab, err := bigDB.Create("Objects", Schema{
		{Name: "object_id", Type: IntType},
		{Name: "ra", Type: FloatType},
		{Name: "dec", Type: FloatType},
		{Name: "payload", Type: StringType},
	})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", payloadLen)
	id := 0
	for i, p := range positions {
		row, err := Values(i, p.ra, p.dec)
		if err != nil {
			t.Fatal(err)
		}
		if err := seedTab.Append(row...); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < dup; d++ {
			row, err := Values(id, p.ra, p.dec, fmt.Sprintf("%08d-", id)+pad)
			if err != nil {
				t.Fatal(err)
			}
			if err := bigTab.Append(row...); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	for _, tab := range []interface {
		EnableSpatial(SpatialConfig) error
	}{seedTab, bigTab} {
		if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
			t.Fatal(err)
		}
	}

	var bigReturned atomic.Bool
	f, err := Launch(Options{
		Surveys: []SurveySpec{},
		Nodes: []NodeSpec{
			{Name: "BIG", DB: bigDB, PrimaryTable: "Objects", RACol: "ra", DecCol: "dec", SigmaArcsec: 0.1},
			{Name: "SEED", DB: seedDB, PrimaryTable: "Objects", RACol: "ra", DecCol: "dec", SigmaArcsec: 0.1},
		},
		ChunkRows: chunkRows,
		NodeEvents: func(node, kind, detail string) {
			if node == "BIG" && kind == "xmatch.return" {
				bigReturned.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const sql = `
		SELECT S.object_id, B.payload
		FROM BIG:Objects B, SEED:Objects S
		WHERE AREA(185.0, -0.5, 900) AND XMATCH(B, S) < 3.5`

	// The count ordering (§5.3) must put the heavy archive portal-adjacent
	// and seed from the small one, or the fixture is not testing what it
	// claims: the payload column must ride the streamed pages.
	p, err := f.BuildPlan(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Archive != "BIG" {
		t.Fatalf("plan order %v; want BIG first (portal-adjacent)", p.Steps)
	}

	// Tight GC so HeapAlloc tracks live data instead of accumulated
	// garbage; restore afterwards.
	defer debug.SetGCPercent(debug.SetGCPercent(20))

	// peakDelta samples HeapAlloc while run executes and reports the peak
	// growth over the post-GC baseline.
	peakDelta := func(run func() error) (uint64, error) {
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		stop := make(chan struct{})
		peakCh := make(chan uint64, 1)
		go func() {
			var m runtime.MemStats
			var pk uint64
			for {
				select {
				case <-stop:
					peakCh <- pk
					return
				default:
					runtime.ReadMemStats(&m)
					if m.HeapAlloc > pk {
						pk = m.HeapAlloc
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
		err := run()
		close(stop)
		pk := <-peakCh
		if pk <= base.HeapAlloc {
			return 0, err
		}
		return pk - base.HeapAlloc, err
	}

	c := f.Client()
	streamRows := 0
	firstRowEarly := false
	streamPeak, err := peakDelta(func() error {
		rows, err := c.QueryRows(context.Background(), sql)
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
			if streamRows == 0 {
				// The whole result (~tens of MB) cannot fit in the
				// pipeline's socket buffers, so if streaming is real the
				// first-step node must still be producing pages when the
				// first row reaches the client.
				firstRowEarly = !bigReturned.Load()
			}
			streamRows++
		}
		return rows.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamRows < 100*chunkRows {
		t.Fatalf("result has %d rows; need >= %d (100x ChunkRows) to exercise many pages", streamRows, 100*chunkRows)
	}

	// The drained execution holds the whole projected result at the
	// portal; the streamed one must peak far below it.
	foldRows := 0
	foldPeak, err := peakDelta(func() error {
		res, err := f.Query(context.Background(), sql)
		if err != nil {
			return err
		}
		foldRows = res.NumRows()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if foldRows != streamRows {
		t.Fatalf("streamed %d rows, folded %d", streamRows, foldRows)
	}
	ratio := 0.0
	if streamPeak > 0 {
		ratio = float64(foldPeak) / float64(streamPeak)
	}
	return streamMemResult{
		Rows:            streamRows,
		Pages:           streamRows / chunkRows,
		ChunkRows:       chunkRows,
		StreamPeakBytes: streamPeak,
		FoldPeakBytes:   foldPeak,
		Ratio:           float64(int(ratio*100+0.5)) / 100,
		FirstRowEarly:   firstRowEarly,
	}
}

// TestStreamBoundedMemoryEndToEnd holds the streamed wire to the two
// acceptance properties: the client iterator yields its first row while
// the first-step node is still producing pages, and peak heap stays
// O(pages in flight) — far below the folded execution's O(result).
func TestStreamBoundedMemoryEndToEnd(t *testing.T) {
	res := runStreamMemDrill(t)
	if !res.FirstRowEarly {
		t.Error("first row reached the client only after the first-step node finished its whole transfer")
	}
	if res.StreamPeakBytes*2 >= res.FoldPeakBytes {
		t.Errorf("streamed peak heap delta %d MB is not clearly below the folded %d MB — streaming is buffering somewhere",
			res.StreamPeakBytes>>20, res.FoldPeakBytes>>20)
	}
	t.Logf("rows=%d pages>=%d streamPeak=%dMB foldPeak=%dMB (%.1fx)",
		res.Rows, res.Pages, res.StreamPeakBytes>>20, res.FoldPeakBytes>>20, res.Ratio)
}

// TestWriteBenchStreamJSON (flag-gated) merges the bounded-memory
// streaming measurement into BENCH_scan.json as stream_mem:
//
//	go test . -run TestWriteBenchStreamJSON -bench-stream-json "$(pwd)/BENCH_scan.json"
func TestWriteBenchStreamJSON(t *testing.T) {
	if *benchStreamJSON == "" {
		t.Skip("pass -bench-stream-json=PATH (an existing BENCH_scan.json) to record the streaming memory drill")
	}
	raw, err := os.ReadFile(*benchStreamJSON)
	if err != nil {
		t.Fatalf("the eval trajectory must be written first (TestWriteBenchScanJSON): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing %s: %v", *benchStreamJSON, err)
	}

	res := runStreamMemDrill(t)
	doc["stream_mem"] = map[string]any{
		"benchmark": "fat-payload federated cross-match, streamed client iterator vs folded whole-result path, peak HeapAlloc across the in-process federation",
		"result":    res,
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*benchStreamJSON, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("merged stream_mem: %d rows, stream %d MB vs folded %d MB (%.1fx)",
		res.Rows, res.StreamPeakBytes>>20, res.FoldPeakBytes>>20, res.Ratio)
}
