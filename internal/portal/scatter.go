package portal

// Scatter tier: query execution against sharded archives. When an
// archive is partitioned by trixel ranges across several skynodes, the
// portal stops daisy-chaining and becomes the chain's coordinator: it
// walks the plan from the seed step backwards, scatters each step to
// only the shards whose trixel ranges intersect the query cover
// (Isolated requests — the nodes never chain in this mode), and merges
// the shard outputs deterministically before stashing them as the next
// step's incoming tuples.
//
// Per-tuple routing: a step after the seed does not stash every
// incoming tuple for every shard. Each tuple goes only to the shards its
// own search cap can reach — those overlapping the finest trixel that
// wholly contains the cap (htm.Enclosing) — and each shard's attempt
// stashes only its own part (routeTuples). Routing may add a shard but
// never drops one that holds a row inside the cap. Every area-routed
// shard is still called, even with no tuples, so each step's output
// schema comes from the nodes; a flat archive's pseudo-shard gets every
// tuple.
//
// Determinism is the whole game. Every merge must reproduce the exact
// row order a single unsharded node would have produced:
//
//   - Seed steps: shards hold contiguous ascending trixel ranges and
//     nodes emit rows in canonical trixel order, so concatenating shard
//     outputs in shard-index order IS the single-node order.
//   - Extend steps: the coordinator appends a hidden ordinal column to
//     the incoming tuples before routing. Step runners carry incoming
//     payload columns through in input order, so each shard's output
//     arrives with nondecreasing ordinals; a k-way merge by (ordinal,
//     shard index) restores the single-node order and the ordinal
//     column is stripped before the next step sees it. A shard a tuple
//     was not routed to holds no match for it, so it would have
//     contributed nothing.
//   - Drop-out steps: a shard's output is the subset of its routed
//     tuples that survived its local veto, so a tuple survives globally
//     iff every shard it was routed to returned it — a tuple routed to
//     no shard (no search budget) survives — taking the surviving rows
//     from the coordinator's own copy.
//
// Replica failover: every per-shard call runs through withReplicas,
// which prefers followers (spreading reads off the append leader),
// fails over to the next replica on any transport or node error, and
// remembers dead endpoints for a cooldown so one dead node does not tax
// every subsequent scatter with its timeout. Followers serve sealed
// blocks that may trail the leader by an append batch —
// stale-but-consistent reads, documented in docs/FEDERATION.md.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"skyquery/internal/core"
	"skyquery/internal/dataset"
	"skyquery/internal/eval"
	"skyquery/internal/htm"
	"skyquery/internal/plan"
	"skyquery/internal/registry"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
	"skyquery/internal/sphere"
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// ordColumn is the hidden ordinal the coordinator appends to stashed
// incoming tuples. Underscored like the match diagnostics so it can
// never collide with a user column.
const ordColumn = "__shard_ord"

// replicaCooldown is how long a failed replica is skipped before the
// portal probes it again.
const replicaCooldown = 2 * time.Second

// shardMapFor returns the archive's shard map when any shard replicas
// have registered, nil for a flat archive.
func (p *Portal) shardMapFor(name string) *registry.ShardMap {
	return p.reg.ShardMap(name)
}

// planSharded reports whether any step of the plan targets a sharded
// archive; if so the whole chain runs under portal coordination.
func (p *Portal) planSharded(pl *plan.Plan) bool {
	for _, s := range pl.Steps {
		if p.reg.ShardMap(s.Archive) != nil {
			return true
		}
	}
	return false
}

// routable errors unless the map's shards tile the full trixel universe
// at its level with a leader each. A partially-registered federation
// must fail queries loudly, never silently answer from a subset.
func (p *Portal) routable(m *registry.ShardMap) error {
	uni := htm.LevelRange(m.Level)
	return m.Complete(uint64(uni.Lo), uint64(uni.Hi))
}

// shardsForArea routes: the shards whose trixel ranges intersect the
// area's cover, in shard-index order. A nil or empty area (no AREA
// clause) routes to every shard.
func shardsForArea(m *registry.ShardMap, area *plan.Area) []registry.Shard {
	if area == nil || (area.RadiusArcsec <= 0 && !area.IsPolygon()) {
		return m.Shards
	}
	region, err := area.Region()
	if err != nil {
		return m.Shards
	}
	bound := region.Bounding()
	sub := htm.LevelForRadius(bound.Radius)
	if sub > m.Level {
		sub = m.Level
	}
	ranges := htm.CoverCap(bound, sub, m.Level).Ranges()
	var out []registry.Shard
	for _, sh := range m.Shards {
		for _, r := range ranges {
			if uint64(r.Lo) <= sh.Range.Hi && sh.Range.Lo <= uint64(r.Hi) {
				out = append(out, sh)
				break
			}
		}
	}
	return out
}

// replicaDown reports whether the endpoint is inside its failure
// cooldown window.
func (p *Portal) replicaDown(ep string) bool {
	v, ok := p.shardDown.Load(ep)
	if !ok {
		return false
	}
	if time.Now().After(v.(time.Time)) {
		p.shardDown.Delete(ep)
		return false
	}
	return true
}

func (p *Portal) markReplicaDown(ep string) {
	p.shardDown.Store(ep, time.Now().Add(replicaCooldown))
}

// withReplicas runs fn against the shard's replicas — followers first,
// leader last — failing over on any error except the caller's own
// cancellation. The first pass skips endpoints inside their failure
// cooldown; a second pass retries them anyway, so a fully-cooled shard
// still gets one chance per query instead of an instant failure.
func (p *Portal) withReplicas(ctx context.Context, archive string, sh registry.Shard, fn func(endpoint string) error) error {
	reps := sh.Replicas()
	if len(reps) == 0 {
		return fmt.Errorf("portal: shard %s/%d has no replicas", archive, sh.Index)
	}
	var lastErr error
	tried := map[string]bool{}
	for pass := 0; pass < 2; pass++ {
		for _, ep := range reps {
			if tried[ep] || (pass == 0 && p.replicaDown(ep)) {
				continue
			}
			tried[ep] = true
			err := fn(ep)
			if err == nil {
				return nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return err
			}
			p.markReplicaDown(ep)
			p.emit("shard.failover", "%s/%d: %s failed: %v", archive, sh.Index, ep, err)
		}
	}
	return fmt.Errorf("portal: shard %s/%d: all replicas failed: %w", archive, sh.Index, lastErr)
}

// scatterEach fans fn out over the shards concurrently and returns the
// first error (by shard index, for determinism).
func scatterEach(shards []registry.Shard, fn func(k int, sh registry.Shard) error) error {
	if len(shards) == 0 {
		return fmt.Errorf("portal: no shards to scatter to")
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k := range shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = fn(k, shards[k])
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fetchQuery runs one table query against one endpoint, draining chunks.
func (p *Portal) fetchQuery(ctx context.Context, ep, sql string) (*dataset.DataSet, error) {
	var first soap.ChunkedData
	if err := p.client.Call(ctx, ep, skynode.ActionQuery, &skynode.QueryRequest{SQL: sql}, &first); err != nil {
		return nil, err
	}
	return soap.FetchAll(ctx, p.client, ep, &first)
}

// scatterCount sums a COUNT(*) query over the shards the area routes to.
func (p *Portal) scatterCount(ctx context.Context, m *registry.ShardMap, sql string, area *plan.Area) (int64, error) {
	if err := p.routable(m); err != nil {
		return 0, err
	}
	shards := shardsForArea(m, area)
	p.emit("shard.scatter", "count %s -> %d/%d shard(s)", m.Archive, len(shards), len(m.Shards))
	counts := make([]int64, len(shards))
	err := scatterEach(shards, func(k int, sh registry.Shard) error {
		return p.withReplicas(ctx, m.Archive, sh, func(ep string) error {
			ds, err := p.fetchQuery(ctx, ep, sql)
			if err != nil {
				return err
			}
			n, err := oneIntCell(ds)
			if err != nil {
				return err
			}
			counts[k] = n
			return nil
		})
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// scatterStats merges per-shard StatsSummary answers: row counts sum,
// the local-predicate selectivity is weighted by each shard's area
// candidates, and the merge is statistics-based only when every shard
// answered from maintained statistics.
func (p *Portal) scatterStats(ctx context.Context, m *registry.ShardMap, probe *core.StatsProbe) (*core.StatsEstimate, error) {
	if err := p.routable(m); err != nil {
		return nil, err
	}
	shards := shardsForArea(m, &probe.Area)
	ests := make([]skynode.StatsResponse, len(shards))
	err := scatterEach(shards, func(k int, sh registry.Shard) error {
		return p.withReplicas(ctx, m.Archive, sh, func(ep string) error {
			return p.client.Call(ctx, ep, skynode.ActionStats, &skynode.StatsRequest{
				Table:      probe.Table,
				Alias:      probe.Alias,
				LocalWhere: probe.LocalWhere,
				Area:       probe.Area,
			}, &ests[k])
		})
	})
	if err != nil {
		return nil, err
	}
	out := &core.StatsEstimate{HasStats: true, Selectivity: 1}
	var selWeighted, areaTotal float64
	for _, e := range ests {
		out.TableRows += e.TableRows
		out.AreaRows += e.AreaRows
		out.EstRows += e.EstRows
		out.HasStats = out.HasStats && e.HasStats
		selWeighted += e.Selectivity * float64(e.AreaRows)
		areaTotal += float64(e.AreaRows)
	}
	if areaTotal > 0 {
		out.Selectivity = selWeighted / areaTotal
	}
	return out, nil
}

// areaOf lifts a parsed AREA clause into the plan's area form.
func areaOf(q *sqlparse.Query) *plan.Area {
	if q.Area == nil {
		return nil
	}
	a := &plan.Area{RA: q.Area.RA, Dec: q.Area.Dec, RadiusArcsec: q.Area.RadiusArcsec}
	for _, v := range q.Area.Vertices {
		a.Vertices = append(a.Vertices, plan.Vertex{RA: v[0], Dec: v[1]})
	}
	return a
}

// scatterTableQuery executes a single-archive pass-through query over a
// sharded archive. The same SQL goes to every routed shard (per-shard
// ORDER BY/TOP keeps each shard's transfer at its local top-N, which is
// a superset of its contribution to the global top-N); the outputs
// concatenate in shard-index order — canonical trixel order — and any
// ORDER BY re-sorts at the portal with the same stable comparator the
// nodes use, so ties keep the canonical order and the result is
// bit-identical to the unsharded node's at every shard count.
func (p *Portal) scatterTableQuery(ctx context.Context, m *registry.ShardMap, sql string) (*dataset.DataSet, error) {
	if err := p.routable(m); err != nil {
		return nil, err
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if q.Count {
		n, err := p.scatterCount(ctx, m, sql, areaOf(q))
		if err != nil {
			return nil, err
		}
		ds := dataset.New(dataset.Column{Name: "count", Type: value.IntType})
		ds.Rows = [][]value.Value{{value.Int(n)}}
		return ds, nil
	}
	shards := shardsForArea(m, areaOf(q))
	p.emit("shard.scatter", "query %s -> %d/%d shard(s)", m.Archive, len(shards), len(m.Shards))
	outs := make([]*dataset.DataSet, len(shards))
	err = scatterEach(shards, func(k int, sh registry.Shard) error {
		return p.withReplicas(ctx, m.Archive, sh, func(ep string) error {
			ds, err := p.fetchQuery(ctx, ep, sql)
			if err == nil {
				outs[k] = ds
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	ds, err := concatShards(outs)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		keys, err := orderKeys(q, ds)
		if err != nil {
			return nil, err
		}
		sorted, err := eval.SortRows(ds.Rows, keys, q.OrderBy)
		if err != nil {
			return nil, err
		}
		ds.Rows = sorted
	}
	if q.Top > 0 && len(ds.Rows) > q.Top {
		ds.Rows = ds.Rows[:q.Top]
	}
	return ds, nil
}

// orderKeys resolves each ORDER BY expression to a result column —
// by select-list alias, rendered expression, or bare column name — and
// gathers the per-row key values for the portal-side global sort.
// Sharded pass-through requires sort keys to appear in the select list:
// the portal only has the projected columns to sort by.
func orderKeys(q *sqlparse.Query, ds *dataset.DataSet) ([][]value.Value, error) {
	star := false
	for _, si := range q.Select {
		if _, ok := si.Expr.(*sqlparse.Star); ok {
			star = true
		}
	}
	idx := make([]int, len(q.OrderBy))
	for i, it := range q.OrderBy {
		es := it.Expr.String()
		idx[i] = -1
		if !star {
			for j, si := range q.Select {
				if (si.Alias != "" && si.Alias == es) || si.Expr.String() == es {
					idx[i] = j
					break
				}
			}
		}
		if idx[i] < 0 {
			if cr, ok := it.Expr.(*sqlparse.ColumnRef); ok {
				idx[i] = ds.ColumnIndex(cr.Column)
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("portal: sharded query needs ORDER BY key %q in the select list", es)
		}
	}
	keys := make([][]value.Value, len(ds.Rows))
	for r, row := range ds.Rows {
		key := make([]value.Value, len(idx))
		for i, j := range idx {
			key[i] = row[j]
		}
		keys[r] = key
	}
	return keys, nil
}

// scatterCrossMatch runs a cross-match chain whose plan touches at
// least one sharded archive: the portal coordinates every step.
func (p *Portal) scatterCrossMatch(ctx context.Context, pl *plan.Plan) (*dataset.DataSet, error) {
	return p.runShardedChain(ctx, pl)
}

// scatterCrossMatchStream is the streamed form. Portal coordination
// materializes each step's merged tuples anyway (the ordinal merge
// needs the full shard outputs per step — a v1 trade-off documented in
// docs/FEDERATION.md), so the fold runs first and the final result
// re-pages through a SliceStream; streamed and folded paths therefore
// share one code path and stay bit-identical by construction.
func (p *Portal) scatterCrossMatchStream(ctx context.Context, pl *plan.Plan) (core.TupleStream, error) {
	ds, err := p.runShardedChain(ctx, pl)
	if err != nil {
		return nil, err
	}
	return core.NewSliceStream(ds, p.cfg.ChunkRows), nil
}

// stepShards resolves the scatter targets of one plan step: the archive's
// shard map with its area-routed shards, or — for a flat archive — a nil
// map and the step's own endpoint wrapped as a single pseudo-shard (flat
// archives ride the same isolated-step machinery inside an otherwise
// sharded plan).
func (p *Portal) stepShards(step plan.Step, area plan.Area) (*registry.ShardMap, []registry.Shard, error) {
	m := p.reg.ShardMap(step.Archive)
	if m == nil {
		uni := htm.LevelRange(0)
		return nil, []registry.Shard{{
			Range:  registry.ShardRange{Lo: uint64(uni.Lo), Hi: uint64(uni.Hi)},
			Leader: step.Endpoint,
		}}, nil
	}
	if err := p.routable(m); err != nil {
		return nil, nil, err
	}
	return m, shardsForArea(m, &area), nil
}

// runShardedChain walks the plan from the seed step (last in call
// order) to the first, scattering each step in isolated mode and
// merging shard outputs into the next step's incoming tuples. Failed
// calls retry on the shard's other replicas with a freshly stashed
// token — stash tokens are consumed by the fetch, so every attempt gets
// its own; tokens of dead attempts age out of the ChunkStore sweep.
func (p *Portal) runShardedChain(ctx context.Context, pl *plan.Plan) (*dataset.DataSet, error) {
	self := p.selfURL()
	chunkRows := pl.ChunkRows
	if chunkRows <= 0 {
		chunkRows = p.cfg.ChunkRows
	}
	var cur *dataset.DataSet
	for i := len(pl.Steps) - 1; i >= 0; i-- {
		step := pl.Steps[i]
		m, shards, err := p.stepShards(step, pl.Area)
		if err != nil {
			return nil, err
		}
		seed := i == len(pl.Steps)-1
		var parts []*dataset.DataSet
		var fanout []int
		if seed {
			p.emit("shard.scatter", "step %s -> %d shard(s)", step.Archive, len(shards))
		} else {
			if self == "" {
				return nil, fmt.Errorf("portal: sharded execution needs SetSelfURL (nodes fetch incoming tuples from the portal's stash)")
			}
			if parts, fanout, err = routeTuples(cur, pl, step, m, shards); err != nil {
				return nil, err
			}
			routed := make([]int, len(parts))
			for k, part := range parts {
				routed[k] = len(part.Rows)
			}
			p.emit("shard.scatter", "step %s -> %d shard(s), tuples routed %v of %d", step.Archive, len(shards), routed, len(cur.Rows))
		}
		outs := make([]*dataset.DataSet, len(shards))
		err = scatterEach(shards, func(k int, sh registry.Shard) error {
			return p.withReplicas(ctx, step.Archive, sh, func(ep string) (err error) {
				req := &skynode.CrossMatchRequest{Plan: *pl, Isolated: true}
				if parts != nil {
					tok := p.chunks.Stash(parts[k], chunkRows, 1)[0]
					req.Incoming = &skynode.IncomingRef{Endpoint: self, Token: tok}
					// A failed or cancelled attempt never drains its
					// token; release it now instead of waiting for the
					// TTL sweep.
					defer func() {
						if err != nil {
							p.chunks.Release(tok)
						}
					}()
				}
				var first soap.ChunkedData
				if err := p.client.Call(ctx, ep, skynode.ActionCrossMatch, req, &first); err != nil {
					return err
				}
				ds, err := soap.FetchAll(ctx, p.client, ep, &first)
				if err != nil {
					return err
				}
				outs[k] = ds
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		switch {
		case seed:
			cur, err = concatShards(outs)
		case step.DropOut:
			cur, err = intersectShards(cur, outs, fanout)
		default:
			cur, err = mergeShards(outs)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// routeTuples splits one non-seed step's incoming tuples by shard. Every
// tuple is tagged with its ordinal and sent only to the shards its search
// cap can reach: those whose trixel range overlaps the finest trixel, at
// the map's level or above, that wholly contains the cap (htm.Enclosing).
// The trixel holds every row inside the cap, so routing may add a shard
// but never drops one that holds a match. A cap no root trixel holds goes
// to every shard; a tuple with no search budget (radius <= 0) goes to
// none, since every node would return nothing for it on an extend step
// and keep it on a drop-out one. A flat archive's pseudo-shard (nil map)
// gets every tuple. Each part keeps the canonical order, so shard outputs
// still arrive with nondecreasing ordinals. fanout[i] counts the shards
// tuple i went to.
func routeTuples(cur *dataset.DataSet, pl *plan.Plan, step plan.Step, m *registry.ShardMap, shards []registry.Shard) (parts []*dataset.DataSet, fanout []int, err error) {
	tagged := withOrdinals(cur)
	parts = make([]*dataset.DataSet, len(shards))
	for k := range parts {
		parts[k] = &dataset.DataSet{Columns: tagged.Columns}
	}
	fanout = make([]int, len(tagged.Rows))
	if m == nil {
		for k := range parts {
			parts[k].Rows = tagged.Rows
		}
		for i := range fanout {
			fanout[i] = len(shards)
		}
		return parts, fanout, nil
	}
	for i, row := range tagged.Rows {
		acc, err := xmatch.CellsToAcc(row)
		if err != nil {
			return nil, nil, err
		}
		radius := acc.SearchRadius(pl.Threshold, step.SigmaArcsec)
		if radius <= 0 {
			continue
		}
		lo, hi := uint64(0), uint64(math.MaxUint64)
		if id, ok := htm.Enclosing(sphere.CapAround(acc.Best(), radius), m.Level); ok {
			r := id.AtLevel(m.Level)
			lo, hi = uint64(r.Lo), uint64(r.Hi)
		}
		for k, sh := range shards {
			if sh.Range.Lo <= hi && lo <= sh.Range.Hi {
				parts[k].Rows = append(parts[k].Rows, row)
				fanout[i]++
			}
		}
	}
	return parts, fanout, nil
}

// withOrdinals appends the hidden ordinal column, numbering rows by
// their position in the canonical merged order.
func withOrdinals(d *dataset.DataSet) *dataset.DataSet {
	cols := append(append([]dataset.Column{}, d.Columns...), dataset.Column{Name: ordColumn, Type: value.IntType})
	out := &dataset.DataSet{Columns: cols, Rows: make([][]value.Value, len(d.Rows))}
	for i, r := range d.Rows {
		row := make([]value.Value, 0, len(r)+1)
		out.Rows[i] = append(append(row, r...), value.Int(int64(i)))
	}
	return out
}

// concatShards glues shard outputs in shard-index order; for seed steps
// (contiguous ascending trixel ranges, trixel-ordered node output) that
// concatenation is exactly the single-node canonical order.
func concatShards(outs []*dataset.DataSet) (*dataset.DataSet, error) {
	ref, err := shardSchema(outs)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, o := range outs {
		total += o.NumRows()
	}
	out := &dataset.DataSet{Columns: ref.Columns, Rows: make([][]value.Value, 0, total)}
	for _, o := range outs {
		out.Rows = append(out.Rows, o.Rows...)
	}
	return out, nil
}

// mergeShards k-way merges extend-step outputs by (ordinal, shard
// index). Each shard stream arrives with nondecreasing ordinals (step
// runners process incoming tuples in order), so the merge restores the
// single-node order: all of tuple 0's matches — shard by shard in
// trixel order — then tuple 1's, and so on. The ordinal column is
// stripped from the merged output.
func mergeShards(outs []*dataset.DataSet) (*dataset.DataSet, error) {
	ref, err := shardSchema(outs)
	if err != nil {
		return nil, err
	}
	oi := ref.ColumnIndex(ordColumn)
	if oi < 0 {
		return nil, fmt.Errorf("portal: shard output lost the ordinal column")
	}
	total := 0
	for _, o := range outs {
		total += o.NumRows()
	}
	out := &dataset.DataSet{Columns: dropColumn(ref.Columns, oi), Rows: make([][]value.Value, 0, total)}
	pos := make([]int, len(outs))
	for {
		best, bestOrd := -1, int64(0)
		for k, o := range outs {
			if pos[k] >= len(o.Rows) {
				continue
			}
			ord := o.Rows[pos[k]][oi].AsInt()
			if best < 0 || ord < bestOrd {
				best, bestOrd = k, ord
			}
		}
		if best < 0 {
			return out, nil
		}
		out.Rows = append(out.Rows, dropCell(outs[best].Rows[pos[best]], oi))
		pos[best]++
	}
}

// intersectShards merges drop-out-step outputs: a shard returns the
// routed tuples its local archive did NOT veto, so a tuple survives the
// global veto iff every shard it was routed to (fanout[i] of them)
// returned it — a tuple routed to no shard survives. The surviving rows
// come from the coordinator's own pre-ordinal copy, which keeps the
// output bit-identical to the single-node fold.
func intersectShards(incoming *dataset.DataSet, outs []*dataset.DataSet, fanout []int) (*dataset.DataSet, error) {
	if _, err := shardSchema(outs); err != nil {
		return nil, err
	}
	hits := make([]int, len(incoming.Rows))
	for _, o := range outs {
		oi := o.ColumnIndex(ordColumn)
		if oi < 0 {
			return nil, fmt.Errorf("portal: drop-out shard output lost the ordinal column")
		}
		last := int64(-1)
		for _, r := range o.Rows {
			ord := r[oi].AsInt()
			if ord <= last || ord >= int64(len(hits)) {
				return nil, fmt.Errorf("portal: drop-out shard output has ordinal %d out of order", ord)
			}
			last = ord
			hits[ord]++
		}
	}
	out := &dataset.DataSet{Columns: incoming.Columns, Rows: make([][]value.Value, 0, len(incoming.Rows))}
	for i, r := range incoming.Rows {
		if hits[i] == fanout[i] {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// shardSchema validates that every shard answered with one schema and
// returns a representative.
func shardSchema(outs []*dataset.DataSet) (*dataset.DataSet, error) {
	var ref *dataset.DataSet
	for _, o := range outs {
		if o == nil {
			return nil, fmt.Errorf("portal: missing shard output")
		}
		if ref == nil {
			ref = o
		} else if !ref.SchemaEqual(o) {
			return nil, fmt.Errorf("portal: shard outputs disagree on schema")
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("portal: no shard outputs")
	}
	return ref, nil
}

func dropColumn(cols []dataset.Column, i int) []dataset.Column {
	out := make([]dataset.Column, 0, len(cols)-1)
	out = append(out, cols[:i]...)
	return append(out, cols[i+1:]...)
}

func dropCell(row []value.Value, i int) []value.Value {
	out := make([]value.Value, 0, len(row)-1)
	out = append(out, row[:i]...)
	return append(out, row[i+1:]...)
}
