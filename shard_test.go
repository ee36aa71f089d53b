package skyquery

// Scale-out federation e2e: the golden corpus must be bit-identical at
// every shard count — sharding an archive by trixel ranges is an
// execution detail, never a semantics change — and the federation must
// degrade, not fail, when replicas die.
//
//   - TestShardedGoldenCorpus: corpus × shard counts {2, 8} × par {1, 4}
//     × batch {1, 3, 1024} (2 shards also at 7 rows per chunk), drained
//     and streamed, against the same checked-in goldens the unsharded
//     federation (TestGoldenQueryCorpus, shard count 1) pins.
//   - TestShardedGoldenCorpusDegraded: the corpus again, drained and
//     streamed, with a replica killed mid-query — answers still
//     bit-identical, failover logged.
//   - TestShardFollowerServesWhenLeaderDown: the failover satellite — a
//     query whose shard leaders are dead is served by the followers.
//   - TestShardScatterPrunes: nettrace-counter proof that a query whose
//     cover intersects a subset of trixel ranges never calls the other
//     shards.
//   - TestWriteBenchShardJSON: flag-gated shard_scaleout entry (qps vs
//     shard count) merged into BENCH_scan.json.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"skyquery/internal/dataset"
	"skyquery/internal/eval"
	"skyquery/internal/htm"
)

// goldenQueries returns the corpus files sorted by name.
func goldenQueries(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "queries", "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden queries found: %v", err)
	}
	sort.Strings(files)
	return files
}

// runCorpus runs every corpus query twice — folded through Query and
// drained row by row off the streaming client iterator (QueryRows) — and
// diffs both against the goldens.
func runCorpus(t *testing.T, f *Federation, files []string, label string) {
	t.Helper()
	c := f.Client()
	for _, file := range files {
		name := label + "/" + filepath.Base(file)
		sql, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(strings.TrimSuffix(file, ".sql") + ".golden")
		if err != nil {
			t.Fatalf("%s: missing golden: %v", file, err)
		}
		res, err := f.Query(context.Background(), string(sql))
		if err != nil {
			t.Errorf("%s: query failed: %v", name, err)
		} else if got := goldenEncode(res); got != string(want) {
			t.Errorf("%s: folded result diverges from golden\ngot:\n%s\nwant:\n%s", name, got, want)
		}
		streamed, err := drainRows(c, string(sql))
		if err != nil {
			t.Errorf("%s: streamed query failed: %v", name, err)
		} else if got := goldenEncode(streamed); got != string(want) {
			t.Errorf("%s: streamed result diverges from golden\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// drainRows runs a query through the streaming client iterator and
// collects its rows.
func drainRows(c *Client, sql string) (*dataset.DataSet, error) {
	rows, err := c.QueryRows(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := &dataset.DataSet{Columns: rows.Columns()}
	for rows.Next() {
		out.Rows = append(out.Rows, rows.Row())
	}
	return out, rows.Err()
}

func TestShardedGoldenCorpus(t *testing.T) {
	files := goldenQueries(t)
	defer eval.SetBatchSize(eval.DefaultBatchSize)
	for _, shards := range []int{2, 8} {
		// ChunkRows 0 is the default (5000). At 7 rows per chunk every
		// isolated step reads its stash in several chunks and runs page
		// after page.
		chunkRows := []int{0}
		if shards == 2 {
			chunkRows = []int{0, 7}
		}
		for _, cr := range chunkRows {
			for _, par := range []int{1, 4} {
				f := launch(t, Options{Bodies: 400, Parallelism: par, Shards: shards, ChunkRows: cr})
				for _, bs := range []int{1, 3, eval.DefaultBatchSize} {
					eval.SetBatchSize(bs)
					runCorpus(t, f, files, fmt.Sprintf("shards=%d/chunk=%d/par=%d/batch=%d", shards, cr, par, bs))
				}
				f.Close()
			}
		}
	}
}

func TestShardedGoldenCorpusDegraded(t *testing.T) {
	files := goldenQueries(t)

	var mu sync.Mutex
	var failovers []string
	f := launch(t, Options{
		Bodies: 400, Shards: 2, Replicas: 1, RecordCalls: true,
		PortalEvents: func(kind, detail string) {
			if kind == "shard.failover" {
				mu.Lock()
				failovers = append(failovers, detail)
				mu.Unlock()
			}
		},
	})

	// Kill one replica mid-query: a watcher waits until the victim has
	// served at least one call of the in-flight query, then cuts it.
	// Queries prefer followers, so the SDSS shard-0 follower is on the
	// hot path; its remaining calls fail over to the leader.
	victim := "SDSS/0/r1"
	victimURL := f.NodeURLs[victim]
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, c := range f.Transport.Calls() {
				if strings.HasPrefix(c.URL, victimURL) {
					f.KillNode(victim)
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	runCorpus(t, f, files, "degraded/mid-query")
	<-killed

	// The dead replica must have been discovered and failed over, and
	// with it still dead the whole corpus must keep answering golden.
	mu.Lock()
	n := len(failovers)
	mu.Unlock()
	if n == 0 {
		t.Error("no shard.failover events — the killed replica was never on the query path")
	}
	runCorpus(t, f, files, "degraded/steady-state")
}

func TestShardFollowerServesWhenLeaderDown(t *testing.T) {
	var mu sync.Mutex
	var failovers []string
	f := launch(t, Options{
		Bodies: 300, Shards: 2, Replicas: 1,
		PortalEvents: func(kind, detail string) {
			if kind == "shard.failover" {
				mu.Lock()
				failovers = append(failovers, detail)
				mu.Unlock()
			}
		},
	})
	want, err := f.Query(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every SDSS shard leader; the followers must carry the query.
	for _, key := range []string{"SDSS/0", "SDSS/1"} {
		if err := f.KillNode(key); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.Query(context.Background(), testQuery)
	if err != nil {
		t.Fatalf("query with dead leaders: %v", err)
	}
	if goldenEncode(got) != goldenEncode(want) {
		t.Error("follower-served result diverges from the pre-kill result")
	}
}

func TestShardScatterPrunes(t *testing.T) {
	const shards = 8
	f := launch(t, Options{Bodies: 400, Shards: shards, RecordCalls: true})

	m := f.Portal.Registry().ShardMap("SDSS")
	if m == nil || len(m.Shards) != shards {
		t.Fatalf("SDSS shard map = %+v, want %d shards", m, shards)
	}

	// A 60-arcsecond cover inside the quarter-degree field intersects a
	// strict subset of the 8 trixel ranges. Mirror the router's math to
	// compute which shards are allowed to see traffic.
	const query = `SELECT COUNT(*) FROM SDSS:PhotoObject O WHERE AREA(185.0, -0.5, 60)`
	cap := NewCap(185.0, -0.5, 60.0/3600.0)
	sub := htm.LevelForRadius(cap.Radius)
	if sub > m.Level {
		sub = m.Level
	}
	ranges := htm.CoverCap(cap, sub, m.Level).Ranges()
	allowed := map[int]bool{}
	for _, sh := range m.Shards {
		for _, r := range ranges {
			if uint64(r.Lo) <= sh.Range.Hi && sh.Range.Lo <= uint64(r.Hi) {
				allowed[sh.Index] = true
				break
			}
		}
	}
	if len(allowed) == 0 || len(allowed) == shards {
		t.Fatalf("degenerate cover: intersects %d of %d shards", len(allowed), shards)
	}

	// Baseline the answer against the unsharded federation.
	f1 := launch(t, Options{Bodies: 400})
	want, err := f1.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	f.Transport.Reset()
	got, err := f.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if goldenEncode(got) != goldenEncode(want) {
		t.Errorf("pruned scatter answer diverges: %s vs %s", goldenEncode(got), goldenEncode(want))
	}

	// Per-host call counters: zero calls to every non-intersecting shard.
	calls := map[string]int{}
	for _, c := range f.Transport.Calls() {
		calls[c.URL] += 1
	}
	pruned := 0
	for k := 0; k < shards; k++ {
		url := f.NodeURLs[fmt.Sprintf("SDSS/%d", k)]
		n := 0
		for u, c := range calls {
			if strings.HasPrefix(u, url) {
				n += c
			}
		}
		if allowed[k] {
			if n == 0 {
				t.Errorf("shard %d intersects the cover but saw no calls", k)
			}
			continue
		}
		if n != 0 {
			t.Errorf("shard %d does not intersect the cover but saw %d call(s)", k, n)
		}
		pruned++
	}
	if pruned == 0 {
		t.Error("no shard was pruned")
	}
}

var benchShardJSON = flag.String("bench-shard-json", "", "merge the shard scale-out benchmark into this BENCH_scan.json")

// TestWriteBenchShardJSON (flag-gated) merges the shard scale-out
// measurement into BENCH_scan.json as shard_scaleout:
//
//	go test . -run TestWriteBenchShardJSON -bench-shard-json "$(pwd)/BENCH_scan.json"
func TestWriteBenchShardJSON(t *testing.T) {
	if *benchShardJSON == "" {
		t.Skip("pass -bench-shard-json=PATH (an existing BENCH_scan.json) to record the shard scale-out drill")
	}
	raw, err := os.ReadFile(*benchShardJSON)
	if err != nil {
		t.Fatalf("the eval trajectory must be written first (TestWriteBenchScanJSON): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing %s: %v", *benchShardJSON, err)
	}

	const rounds = 6
	results := map[string]any{}
	for _, shards := range []int{1, 2, 8} {
		f := launch(t, Options{Bodies: 2000, Shards: shards})
		if _, err := f.Query(context.Background(), testQuery); err != nil { // warm plans + stats
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := f.Query(context.Background(), testQuery); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		qps := float64(rounds) / elapsed.Seconds()
		results[fmt.Sprintf("shards_%d", shards)] = map[string]any{
			"qps":          qps,
			"ms_per_query": elapsed.Seconds() * 1000 / rounds,
		}
		f.Close()
		t.Logf("shards=%d: %.1f qps", shards, qps)
	}
	doc["shard_scaleout"] = map[string]any{
		"benchmark": "paper cross-match over a 2000-body federation, in-process loopback; qps vs trixel-range shard count",
		"result":    results,
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*benchShardJSON, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
