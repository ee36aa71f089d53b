package main

// The traced run. This change adds no spans inside the program: every
// layer is timed from here, by calling its public entry points on the
// workload's real queries and data, after a traced client loop has
// recorded a span tree per query. Layer numbers are therefore replays —
// isolated, folded, one at a time — and not an exact decomposition of the
// pipelined query; unattributed_ms says by how much they miss.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"skyquery"
	"skyquery/internal/dataset"
	"skyquery/internal/htm"
	"skyquery/internal/nettrace"
	"skyquery/internal/plan"
	"skyquery/internal/portal"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
	"skyquery/internal/sphere"
	"skyquery/internal/sqlparse"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// storageCounters snapshots the storage package's process-wide counters.
type storageCounters struct {
	zonePruned, cacheHits, cacheMisses, hydrated int64
}

func readStorageCounters() storageCounters {
	return storageCounters{
		zonePruned:  storage.ZoneBlocksPruned(),
		cacheHits:   storage.BlockCacheHits(),
		cacheMisses: storage.BlockCacheMisses(),
		hydrated:    storage.ColdBlocksHydrated(),
	}
}

// heapSampler polls live heap bytes through runtime/metrics, which does
// not stop the world the way ReadMemStats does.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}

// stash is the harness-owned ChunkStore isolated chain steps fetch their
// incoming tuples from, served on loopback HTTP like the portal's.
type stash struct {
	store soap.ChunkStore
	srv   *http.Server
	url   string
}

func newStash(codec soap.Codec) (*stash, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stash{url: "http://" + ln.Addr().String()}
	server := soap.NewServer()
	server.Codec = codec
	server.Handle(soap.FetchAction, st.store.FetchHandler())
	st.srv = &http.Server{Handler: server}
	go st.srv.Serve(ln)
	return st, nil
}

// stepStat is one replayed chain step.
type stepStat struct {
	seed               bool
	tuplesIn           int
	tuplesOut          int
	wall               time.Duration // scatter to every shard, concurrently, until the last answers
	shardSum, shardMax time.Duration
}

const ordColumn = "__bench_ord"

// replaySteps executes the plan step by step from the seed backwards, as
// the portal's scatter tier does: each step is an isolated CrossMatch SOAP
// call whose incoming tuples sit in the harness's stash. A sharded step
// goes to every shard leader concurrently and the outputs merge by a
// hidden ordinal column, so the next step sees the single-node order. It
// returns the per-step stats, the seed step's output (the first extend
// step's real input) and the chain's final tuples.
func (r *replayer) replaySteps(ctx context.Context, qn, parent int, pl *plan.Plan) ([]stepStat, *dataset.DataSet, *dataset.DataSet, error) {
	rec, sc, st := r.rec, r.sc, r.st
	var stats []stepStat
	var cur, seedOut *dataset.DataSet
	reg := r.s.fed.Portal.Registry()
	for i := len(pl.Steps) - 1; i >= 0; i-- {
		step := pl.Steps[i]
		if step.DropOut {
			return nil, nil, nil, fmt.Errorf("replay: drop-out step %s: no workload has one", step.Archive)
		}
		eps := []string{step.Endpoint}
		if m := reg.ShardMap(step.Archive); m != nil {
			eps = eps[:0]
			for _, sh := range m.Shards {
				eps = append(eps, sh.Leader)
			}
		}
		stat := stepStat{seed: cur == nil}
		incoming := cur
		if cur != nil {
			stat.tuplesIn = cur.NumRows()
			if len(eps) > 1 {
				incoming = withOrdinals(cur)
			}
		}
		name := "skynode.extend " + step.Archive
		if stat.seed {
			name = "skynode.seed " + step.Archive
		}
		stepSpan, endStep := rec.start(qn, parent, name)
		outs := make([]*dataset.DataSet, len(eps))
		durs := make([]time.Duration, len(eps))
		errs := make([]error, len(eps))
		t0 := time.Now()
		var wg sync.WaitGroup
		for k, ep := range eps {
			wg.Add(1)
			go func(k int, ep string) {
				defer wg.Done()
				_, end := rec.start(qn, stepSpan, fmt.Sprintf("shard %d", k))
				defer end()
				tk := time.Now()
				req := &skynode.CrossMatchRequest{Plan: *pl, Isolated: true}
				if incoming != nil {
					tok := st.store.Stash(incoming, pl.ChunkRows, 1)[0]
					req.Incoming = &skynode.IncomingRef{Endpoint: st.url, Token: tok}
				}
				var first soap.ChunkedData
				if errs[k] = sc.Call(ctx, ep, skynode.ActionCrossMatch, req, &first); errs[k] != nil {
					return
				}
				outs[k], errs[k] = soap.FetchAll(ctx, sc, ep, &first)
				durs[k] = time.Since(tk)
			}(k, ep)
		}
		wg.Wait()
		stat.wall = time.Since(t0)
		endStep()
		for k, err := range errs {
			if err != nil {
				return nil, nil, nil, fmt.Errorf("replay: step %s shard %d: %w", step.Archive, k, err)
			}
			stat.shardSum += durs[k]
			stat.shardMax = max(stat.shardMax, durs[k])
		}
		switch {
		case len(outs) == 1:
			cur = outs[0]
		case stat.seed:
			cur = concat(outs)
		default:
			cur = mergeByOrdinal(outs)
		}
		stat.tuplesOut = cur.NumRows()
		if stat.seed {
			seedOut = cur
		}
		stats = append(stats, stat)
	}
	return stats, seedOut, cur, nil
}

func withOrdinals(d *dataset.DataSet) *dataset.DataSet {
	out := &dataset.DataSet{
		Columns: append(append([]dataset.Column{}, d.Columns...), dataset.Column{Name: ordColumn, Type: value.IntType}),
		Rows:    make([][]value.Value, len(d.Rows)),
	}
	for i, r := range d.Rows {
		out.Rows[i] = append(append(make([]value.Value, 0, len(r)+1), r...), value.Int(int64(i)))
	}
	return out
}

func concat(outs []*dataset.DataSet) *dataset.DataSet {
	out := &dataset.DataSet{Columns: outs[0].Columns}
	for _, o := range outs {
		out.Rows = append(out.Rows, o.Rows...)
	}
	return out
}

// mergeByOrdinal restores the single-node order of an extend step's shard
// outputs: steps carry incoming columns through in input order, so a
// stable sort of the shard-order concatenation by ordinal is the k-way
// merge by (ordinal, shard). The ordinal column is stripped.
func mergeByOrdinal(outs []*dataset.DataSet) *dataset.DataSet {
	all := concat(outs)
	oi := all.ColumnIndex(ordColumn)
	sort.SliceStable(all.Rows, func(a, b int) bool { return all.Rows[a][oi].AsInt() < all.Rows[b][oi].AsInt() })
	cols := append(append([]dataset.Column{}, all.Columns[:oi]...), all.Columns[oi+1:]...)
	for i, r := range all.Rows {
		all.Rows[i] = append(r[:oi:oi], r[oi+1:]...)
	}
	all.Columns = cols
	return all
}

// kernelStat is the extend step's inner loop taken apart on the step's
// real input: per incoming tuple the HTM cover of its search cap, the
// candidate gather through the table's spatial index, and the chi-square
// gate over the gathered candidates.
type kernelStat struct {
	tuples, ranges, cands, matches int
	cover, gather, chi2            time.Duration
}

func replayKernel(pl *plan.Plan, step plan.Step, tuples *dataset.DataSet, table *storage.Table) (kernelStat, error) {
	var ks kernelStat
	area, err := pl.Area.Region()
	if err != nil {
		return ks, err
	}
	type probe struct {
		acc xmatch.Accumulator
		cap sphere.Cap
	}
	probes := make([]probe, 0, len(tuples.Rows))
	for _, row := range tuples.Rows {
		acc, err := xmatch.CellsToAcc(row)
		if err != nil {
			return ks, err
		}
		if r := acc.SearchRadius(pl.Threshold, step.SigmaArcsec); r > 0 {
			probes = append(probes, probe{acc, sphere.CapAround(acc.Best(), r)})
		}
	}
	ks.tuples = len(probes)
	level := table.SpatialLevel()

	t0 := time.Now()
	for _, p := range probes {
		cov := htm.CoverCap(p.cap, min(htm.LevelForRadius(p.cap.Radius), level), level)
		ks.ranges += len(cov.Inner) + len(cov.Partial)
	}
	ks.cover = time.Since(t0)

	// The gather includes its own cover: SearchCapBatch is the public
	// boundary; subtract cover_ns_per_tuple for the index walk alone.
	sb := &storage.SearchBatch{Rows: make([]int, 0, 1024), Pos: make([]sphere.Vec, 0, 1024),
		Accept: func(_ int, pos sphere.Vec) bool { return area.Contains(pos) }}
	candPos := make([][]sphere.Vec, len(probes))
	t0 = time.Now()
	for i, p := range probes {
		err := table.SearchCapBatch(p.cap, sb, func(_ []int, pos []sphere.Vec) bool {
			candPos[i] = append(candPos[i], pos...)
			return true
		})
		if err != nil {
			return ks, err
		}
	}
	ks.gather = time.Since(t0)

	t0 = time.Now()
	for i, p := range probes {
		for _, pos := range candPos[i] {
			if p.acc.Add(pos, step.SigmaArcsec).Matches(pl.Threshold) {
				ks.matches++
			}
		}
		ks.cands += len(candPos[i])
	}
	ks.chi2 = time.Since(t0)
	return ks, nil
}

// drainPortal runs sql through the portal in process — no client hop —
// and folds the pages into a data set.
func (s *session) drainPortal(ctx context.Context, sql string) (*dataset.DataSet, error) {
	ts, err := s.fed.Portal.QueryStream(ctx, sql)
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	ds := &dataset.DataSet{Columns: ts.Columns()}
	for {
		page, err := ts.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			return ds, nil
		}
		ds.Rows = append(ds.Rows, page...)
	}
}

// codecRoundTrip encodes and decodes the result on the workload's wire
// codec and returns the two times and the encoded size.
func codecRoundTrip(ds *dataset.DataSet, xml bool) (enc, dec time.Duration, size int, err error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if xml {
		err = ds.EncodeXML(&buf)
	} else {
		err = ds.EncodeColumnar(&buf, 0)
	}
	enc = time.Since(t0)
	if err != nil {
		return
	}
	size = buf.Len()
	t0 = time.Now()
	if xml {
		_, err = dataset.DecodeXML(&buf)
	} else {
		_, err = dataset.DecodeColumnar(&buf)
	}
	dec = time.Since(t0)
	return
}

// series collects one layer metric's per-replay values; the run reports
// the median.
type series map[string][]float64

func (se series) add(name string, v float64) { se[name] = append(se[name], v) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replayer takes pool entries apart layer by layer after the traced loop.
type replayer struct {
	s   *session
	rec *recorder
	res *result
	// se holds every layer metric's per-replay values.
	se series
	// orders counts the chain orders of the replays' fresh plans.
	orders map[string]int
	client *skyquery.Client
	sc     *soap.Client
	st     *stash
	// nodeURL is the node the RPC floor is measured against.
	nodeURL string
	// cachedPlan is the plan a fixed SQL text keeps hitting in the plan
	// cache (nil for pass-through and for pools that always miss).
	cachedPlan *plan.Plan
	// fresh: the pool is larger than the plan cache, so every query must
	// miss it and each use of a query draws its own pool entry. A pool that
	// fits hits the cache anyway, so one replay sees one SQL text.
	fresh bool
	// twins holds a RAM copy of each archive the kernel or the scan
	// replays on (the federation does not expose its nodes' databases).
	twins map[string]*storage.DB
}

// tableOf returns the table a replay reads directly: the reopened store's
// for a cold workload, else the archive's RAM twin.
func (r *replayer) tableOf(archive, table string) (*storage.DB, *storage.Table, error) {
	db := r.twins[archive]
	if r.s.fed.store != nil {
		db = r.s.fed.store.DB()
	} else if db == nil {
		var err error
		if db, err = r.s.fed.Archives[archive].BuildDB(); err != nil {
			return nil, nil, err
		}
		r.twins[archive] = db
	}
	t, ok := db.Table(table)
	if !ok {
		return nil, nil, fmt.Errorf("replay: archive %s has no table %s", archive, table)
	}
	return db, t, nil
}

func (r *replayer) fail(err error) {
	r.res.failed++
	if r.res.firstErr == nil {
		r.res.firstErr = err
	}
}

// replay runs the next pool entry through every layer once.
func (r *replayer) replay(ctx context.Context, qn int) error {
	s, se, rec := r.s, r.se, r.rec
	root, endRoot := rec.start(qn, 0, "replay")
	defer endRoot()
	i, sql := s.next()
	ci, pi := i, i
	if r.fresh {
		ci, _ = s.next()
		pi, _ = s.next()
	}

	_, end := rec.start(qn, root, "sqlparse.parse")
	t0 := time.Now()
	q, err := sqlparse.Parse(sql)
	if err == nil {
		err = sqlparse.Validate(q)
	}
	if err == nil && q.XMatch != nil {
		sqlparse.Decompose(q)
	}
	se.add("parse_us", float64(time.Since(t0))/float64(time.Microsecond))
	end()
	if err != nil {
		return err
	}

	// Client hop: the query through the SOAP client and through the
	// portal in process.
	t0 = time.Now()
	if _, err := s.query(ctx, r.client, rec, qn, ci); err != nil {
		return err
	}
	se.add("client_ms", ms(time.Since(t0)))
	_, end = rec.start(qn, root, "portal.query_stream")
	t0 = time.Now()
	ds, err := s.drainPortal(ctx, s.pool[pi])
	portalMs := ms(time.Since(t0))
	end()
	if err != nil {
		return err
	}
	var got answer
	for _, row := range ds.Rows {
		got.add(row)
	}
	r.res.attempted++
	if got != s.want[pi] {
		r.fail(fmt.Errorf("query %d in process: wrong answer", pi))
	}
	se.add("portal_ms", portalMs)

	var stepsMs float64
	if q.XMatch != nil {
		stepsMs, err = r.replayChain(ctx, qn, root, i)
	} else {
		err = r.replayScan(qn, root, q)
	}
	if err != nil {
		return err
	}
	se.add("portal_self_ms", portalMs-stepsMs)

	_, end = rec.start(qn, root, "dataset.codec")
	enc, dec, size, err := codecRoundTrip(ds, s.w.codec == soap.CodecXML)
	end()
	if err != nil {
		return err
	}
	se.add("encode_ms", ms(enc))
	se.add("decode_ms", ms(dec))
	se.add("encoded_kb", float64(size)/1024)
	se.add("codec_mb_per_s", ratio(float64(size)/1e6, (enc+dec).Seconds()))

	// RPC floor: the emptiest call a node serves.
	_, end = rec.start(qn, root, "soap.rpc_floor x8")
	defer end()
	for k := 0; k < 8; k++ {
		var info skynode.InformationResponse
		t0 = time.Now()
		if err := r.sc.Call(ctx, r.nodeURL, skynode.ActionInformation, &skynode.InformationRequest{}, &info); err != nil {
			return err
		}
		se.add("rpc_floor_us", float64(time.Since(t0))/float64(time.Microsecond))
	}
	return nil
}

// replayChain takes a cross-match query apart: planner, chain steps, and
// the first extend step's kernel. It returns the sum of the step walls.
func (r *replayer) replayChain(ctx context.Context, qn, root, i int) (float64, error) {
	s, se, rec := r.s, r.se, r.rec
	tr := s.fed.Transport
	before := tr.Stats().Requests
	_, end := rec.start(qn, root, "planner.build_plan")
	t0 := time.Now()
	pl, err := s.fed.BuildPlan(ctx, s.pool[i])
	se.add("plan_ms", ms(time.Since(t0)))
	end()
	if err != nil {
		return 0, err
	}
	se.add("plan_rpcs", float64(tr.Stats().Requests-before))
	r.orders[orderOf(pl)]++
	if r.cachedPlan != nil {
		pl = r.cachedPlan
	}

	stats, seedOut, final, err := r.replaySteps(ctx, qn, root, pl)
	if err != nil {
		return 0, err
	}
	if final.NumRows() != s.want[i].rows {
		r.fail(fmt.Errorf("query %d replayed step by step: %d tuples, oracle has %d rows", i, final.NumRows(), s.want[i].rows))
	}
	var stepsMs, extendMs, shardSum, shardMax float64
	var extendIn, tuplesIn, tuplesOut int
	for _, stat := range stats {
		stepsMs += ms(stat.wall)
		shardSum += ms(stat.shardSum)
		shardMax += ms(stat.shardMax)
		tuplesIn += stat.tuplesIn
		tuplesOut += stat.tuplesOut
		if stat.seed {
			se.add("step_seed_ms", ms(stat.wall))
		} else {
			extendMs += ms(stat.wall)
			extendIn += stat.tuplesIn
		}
	}
	se.add("step_extend_ms", extendMs)
	se.add("extend_ns_per_tuple", ratio(extendMs*1e6, float64(extendIn)))
	se.add("step_tuples_in", float64(tuplesIn))
	se.add("step_tuples_out", float64(tuplesOut))
	se.add("shard_step_sum_ms", shardSum)
	se.add("shard_step_max_ms", shardMax)

	// The first extend step's kernel, on its real input.
	ext := pl.Steps[len(pl.Steps)-2]
	_, table, err := r.tableOf(ext.Archive, ext.Table)
	if err != nil {
		return 0, err
	}
	_, end = rec.start(qn, root, "kernel htm.cover+storage.gather+xmatch.chi2 "+ext.Archive)
	ks, err := replayKernel(pl, ext, seedOut, table)
	end()
	if err != nil {
		return 0, err
	}
	n := float64(ks.tuples)
	se.add("cover_ns_per_tuple", ratio(float64(ks.cover), n))
	se.add("ranges_per_cover", ratio(float64(ks.ranges), n))
	se.add("gather_ns_per_tuple", ratio(float64(ks.gather), n))
	se.add("cands_per_tuple", ratio(float64(ks.cands), n))
	se.add("chi2_ns_per_cand", ratio(float64(ks.chi2), float64(ks.cands)))
	se.add("match_ratio", ratio(float64(ks.matches), float64(ks.cands)))
	return stepsMs, nil
}

// replayScan times a pass-through query's whole node share: one table scan
// on the served table.
func (r *replayer) replayScan(qn, root int, q *sqlparse.Query) error {
	db, table, err := r.tableOf(q.From[0].Archive, q.From[0].Table)
	if err != nil {
		return err
	}
	_, end := r.rec.start(qn, root, "storage.select")
	t0 := time.Now()
	_, err = db.Execute(q)
	d := time.Since(t0)
	end()
	r.se.add("scan_ns_per_row", ratio(float64(d), float64(table.RowCount())))
	return err
}

// runTraced measures the per-layer metrics: a tracing-off loop for the
// baseline p50, a traced loop (spans around the client's calls, the
// transport's per-call log on), then layer-by-layer replays of real
// queries. A metric of a layer that is not on the workload's path is 0.
func runTraced(ctx context.Context, cfg runConfig, w *workload, seed int64, in *inputs) (*result, error) {
	cfg.setups = 1
	s, _, err := open(ctx, cfg, w, seed, in)
	if err != nil {
		return nil, err
	}
	defer s.fed.close()
	fed := s.fed
	tr := fed.Transport
	window := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{workload: w.name, attempted: 1}
	r := &replayer{s: s, res: res, se: series{}, orders: map[string]int{}, twins: map[string]*storage.DB{},
		fresh: len(s.pool) > 2*portal.DefaultPlanCacheSize}
	if !r.fresh {
		// The cached plan was built during set-up; rebuilding it now, before
		// traffic moves the planner's throughput inputs, yields the same plan.
		if r.cachedPlan, err = s.firstPlan(ctx); err != nil {
			return nil, err
		}
	}

	res.merge(s.runLoop(ctx, window/8, nil))
	runtime.GC()
	untraced := s.runLoop(ctx, window/4, nil)
	res.merge(untraced)

	r.rec = newRecorder()
	tr.RecordCalls = true
	tr.Reset()
	sc0, pc0 := readStorageCounters(), fed.Portal.PlanCacheStats()
	heap := startHeapSampler()
	traced := s.runLoop(ctx, window/4, r.rec)
	peak := heap.finish()
	sc1, pc1 := readStorageCounters(), fed.Portal.PlanCacheStats()
	calls := tr.Calls()
	res.merge(traced)
	res.samples = len(traced.samples)
	if len(traced.samples) == 0 || len(untraced.samples) == 0 {
		if res.firstErr != nil {
			return nil, res.firstErr
		}
		return nil, fmt.Errorf("no correct query inside a %.2fs window", cfg.seconds/4)
	}
	tracedP50 := percentile(totals(traced.samples), 0.50)
	untracedP50 := percentile(totals(untraced.samples), 0.50)

	r.client = fed.Client()
	r.nodeURL = anyNodeURL(fed.NodeURLs)
	r.sc = &soap.Client{HTTPClient: tr.Client(), Codec: w.codec}
	if r.st, err = newStash(w.codec); err != nil {
		return nil, err
	}
	defer r.st.srv.Close()
	// Replays: as many as fit in a third of the window, 3 to 200.
	replayStart := time.Now()
	for j := 0; j < 200 && (j < 3 || time.Since(replayStart) < window/3); j++ {
		if err := r.replay(ctx, 1_000_000+j); err != nil {
			return nil, err
		}
	}

	med := func(name string) float64 {
		if len(r.se[name]) == 0 {
			return 0
		}
		return median(r.se[name])
	}
	nq := float64(traced.attempted)
	hops := hopBytes(calls, fed.PortalURL)
	rows := 0
	if s.fed.store != nil {
		t, _ := s.fed.store.DB().Table(survey.TableName)
		rows = t.RowCount()
	} else {
		rows = len(fed.Archives[w.surveys[0]].Obs)
	}
	blocks := float64((rows + storage.ZoneBlockRows - 1) / storage.ZoneBlockRows)
	clientHop := med("client_ms") - med("portal_ms")
	portalSelf := med("portal_self_ms")
	stepSum := med("step_seed_ms") + med("step_extend_ms")

	// Distinct chain orders the run saw: the cached plan's and every
	// replan's. More than one is the first suspect for bimodal latency.
	res.planOrder = "-"
	if len(r.orders) > 0 {
		var parts []string
		for o, n := range r.orders {
			parts = append(parts, fmt.Sprintf("%s x%d", o, n))
		}
		sort.Strings(parts)
		res.planOrder = "replanned " + strings.Join(parts, ", ")
		if r.cachedPlan != nil {
			res.planOrder = orderOf(r.cachedPlan) + " cached and replayed; " + res.planOrder
			r.orders[orderOf(r.cachedPlan)]++
		}
		if len(r.orders) > 1 {
			res.planOrder += " (CHANGED within the run: first suspect for bimodal latency)"
		}
	}
	res.add("parse_us", med("parse_us"), "us")
	res.add("plan_ms", med("plan_ms"), "ms")
	res.add("plan_rpcs", med("plan_rpcs"), "count")
	res.add("plan_orders_seen", float64(len(r.orders)), "count")
	res.add("portal_self_ms", portalSelf, "ms")
	res.add("plan_cache_hit_ratio", ratio(float64(pc1.Hits-pc0.Hits), float64(pc1.Hits-pc0.Hits+pc1.Misses-pc0.Misses)), "ratio")
	res.add("step_seed_ms", med("step_seed_ms"), "ms")
	res.add("step_extend_ms", med("step_extend_ms"), "ms")
	res.add("extend_ns_per_tuple", med("extend_ns_per_tuple"), "ns")
	res.add("step_tuples_in", med("step_tuples_in"), "count")
	res.add("step_tuples_out", med("step_tuples_out"), "count")
	res.add("shard_step_sum_ms", med("shard_step_sum_ms"), "ms")
	res.add("shard_step_max_ms", med("shard_step_max_ms"), "ms")
	res.add("cover_ns_per_tuple", med("cover_ns_per_tuple"), "ns")
	res.add("ranges_per_cover", med("ranges_per_cover"), "count")
	res.add("gather_ns_per_tuple", med("gather_ns_per_tuple"), "ns")
	res.add("cands_per_tuple", med("cands_per_tuple"), "count")
	res.add("chi2_ns_per_cand", med("chi2_ns_per_cand"), "ns")
	res.add("match_ratio", med("match_ratio"), "ratio")
	res.add("scan_ns_per_row", med("scan_ns_per_row"), "ns")
	res.add("blocks_pruned_ratio", ratio(float64(sc1.zonePruned-sc0.zonePruned), nq*blocks), "ratio")
	res.add("block_cache_hit_ratio", ratio(float64(sc1.cacheHits-sc0.cacheHits),
		float64(sc1.cacheHits-sc0.cacheHits+sc1.cacheMisses-sc0.cacheMisses)), "ratio")
	res.add("cold_hydrations_per_query", float64(sc1.hydrated-sc0.hydrated)/nq, "count")
	res.add("encode_ms", med("encode_ms"), "ms")
	res.add("decode_ms", med("decode_ms"), "ms")
	res.add("codec_mb_per_s", med("codec_mb_per_s"), "MB/s")
	res.add("encoded_kb", med("encoded_kb"), "KB")
	res.add("rpc_calls_per_query", float64(traced.requests)/nq, "count")
	res.add("rpc_floor_us", med("rpc_floor_us"), "us")
	res.add("hop_client_portal_kb", float64(hops.clientPortal)/1024/nq, "KB")
	res.add("hop_node_kb", float64(hops.node)/1024/nq, "KB")
	res.add("hop_stash_kb", float64(hops.stash)/1024/nq, "KB")
	res.add("client_hop_ms", clientHop, "ms")
	res.add("cpu_ms_per_query", ms(untraced.cpu)/float64(untraced.attempted), "ms")
	res.add("alloc_kb_per_query", float64(untraced.alloc)/1024/float64(untraced.attempted), "KB")
	res.add("gc_per_100q", 100*float64(untraced.gcs)/float64(untraced.attempted), "count")
	res.add("peak_heap_mb", float64(peak)/(1<<20), "MB")
	res.add("traced_p50_ms", tracedP50, "ms")
	// A self time is never negative; a negative portal residual means the
	// isolated, folded step replays took longer than the pipelined query
	// they replay, and shows up as negative unattributed time instead.
	res.add("unattributed_ms", tracedP50-(clientHop+max(portalSelf, 0)+stepSum), "ms")
	res.add("trace_overhead_ratio", tracedP50/untracedP50, "ratio")

	if err := dumpTrace(cfg, w, seed, res, r.rec); err != nil {
		return nil, err
	}
	return res, nil
}

func anyNodeURL(urls map[string]string) string {
	keys := make([]string, 0, len(urls))
	for k := range urls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return urls[keys[0]]
}

// hops sums the per-call log by hop: client<->portal (the SkyQuery
// action), stash fetches (Fetch calls addressed to the portal: a shard
// pulling its step's incoming tuples), and everything addressed to a node
// (portal->node and node->node calls, chunk fetches, probes).
type hops struct{ clientPortal, stash, node int64 }

func hopBytes(calls []nettrace.Call, portalURL string) hops {
	var h hops
	for _, c := range calls {
		n := c.BytesSent + c.BytesReceived
		switch {
		case !strings.HasPrefix(c.URL, portalURL):
			h.node += n
		case c.Action == soap.FetchAction:
			h.stash += n
		default:
			h.clientPortal += n
		}
	}
	return h
}

// dumpTrace writes the traced run — environment, metrics, counts and
// every span — as JSON under .bench_build/.
func dumpTrace(cfg runConfig, w *workload, seed int64, res *result, rec *recorder) error {
	metricsOut := map[string]float64{}
	for _, m := range res.metrics {
		metricsOut[m.name] = m.value
	}
	out := struct {
		Workload   string             `json:"workload"`
		Seed       int64              `json:"seed"`
		GoVersion  string             `json:"go_version"`
		NumCPU     int                `json:"NumCPU"`
		GOMAXPROCS int                `json:"GOMAXPROCS"`
		Commit     string             `json:"commit"`
		PlanOrder  string             `json:"plan_order"`
		Metrics    map[string]float64 `json:"metrics"`
		Counts     map[string]int64   `json:"counts"`
		Spans      []span             `json:"spans"`
	}{w.name, seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(),
		res.planOrder, metricsOut, rec.counts, rec.spans}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	dir := filepath.Dir(cfg.tmpDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed)), data, 0o644)
}
