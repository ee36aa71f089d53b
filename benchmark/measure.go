package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skyquery"
	"skyquery/internal/nettrace"
	"skyquery/internal/plan"
	"skyquery/internal/sqlparse"
)

// runConfig is what one run of one workload is measured with.
type runConfig struct {
	// seconds is the measured window; warm-up is 2 s of the same load, or a
	// quarter of the window when that is shorter.
	seconds float64
	// scale multiplies every workload's body count. It is 1 in every run;
	// only the smoke test sets it lower, for tiny federations. It is not a
	// flag: numbers under one metric name must come from one data size.
	scale float64
	// setups is how many times set-up is timed; setup_s is their median.
	setups int
	// minSamples is the least number of correct queries a window must hold
	// before percentiles are reported.
	minSamples int
	// tmpDir holds the cold workload's store directories.
	tmpDir string
}

// session is a launched workload ready to be queried: the federation, the
// SQL pool with the oracle's answers, and the cursor every client and
// every layer replay draws its next SQL text from.
type session struct {
	w      *workload
	fed    *federation
	pool   []string
	want   []answer
	cursor atomic.Int64
}

func (s *session) next() (int, string) {
	i := int((s.cursor.Add(1) - 1) % int64(len(s.pool)))
	return i, s.pool[i]
}

// sample is one correct query as its client saw it.
type sample struct {
	total time.Duration // submit -> last row drained
	first time.Duration // submit -> first row out of Rows.Next
}

// queryOnce runs the pool's next SQL text (see query).
func (s *session) queryOnce(ctx context.Context, c *skyquery.Client, rec *recorder, qn int) (sample, error) {
	i, _ := s.next()
	return s.query(ctx, c, rec, qn, i)
}

// query submits pool entry i through the client a remote astronomer uses,
// drains the result row by row, and checks it against the oracle's answer.
func (s *session) query(ctx context.Context, c *skyquery.Client, rec *recorder, qn, i int) (sample, error) {
	sql := s.pool[i]
	root, endRoot := rec.start(qn, 0, "query")
	defer endRoot()
	t0 := time.Now()
	_, endOpen := rec.start(qn, root, "client.open")
	rows, err := c.QueryRows(ctx, sql)
	endOpen()
	if err != nil {
		return sample{}, fmt.Errorf("query %d: %w", i, err)
	}
	defer rows.Close()
	var got answer
	var first time.Duration
	_, endPhase := rec.start(qn, root, "client.first_row")
	for rows.Next() {
		if got.rows == 0 {
			first = time.Since(t0)
			endPhase()
			_, endPhase = rec.start(qn, root, "client.drain")
		}
		got.add(rows.Row())
	}
	total := time.Since(t0)
	endPhase()
	if err := rows.Err(); err != nil {
		return sample{}, fmt.Errorf("query %d: %w", i, err)
	}
	if got.rows == 0 {
		first = total
	}
	if got != s.want[i] {
		return sample{}, fmt.Errorf("query %d: wrong answer: %d rows hash %016x, oracle has %d rows hash %016x",
			i, got.rows, got.hash, s.want[i].rows, s.want[i].hash)
	}
	rec.count("rows", int64(got.rows))
	return sample{total: total, first: first}, nil
}

// loopStats is what one closed-loop window observed.
type loopStats struct {
	samples   []sample // correct queries only
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	wire      int64 // request + response body bytes on every hop
	requests  int64 // HTTP requests on every hop
	cpu       time.Duration
	alloc     uint64
	gcs       uint32
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLoop drives the workload's clients in a closed loop for d: each
// client sends its next query only after draining the previous one. A
// query that started inside the window counts, so elapsed >= d.
func (s *session) runLoop(ctx context.Context, d time.Duration, rec *recorder) loopStats {
	n := s.w.clientCount()
	tr := s.fed.Transport
	net0 := tr.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]loopStats, n)
	var qn atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(p *loopStats) {
			defer wg.Done()
			c := s.fed.Client()
			for time.Now().Before(deadline) {
				smp, err := s.queryOnce(ctx, c, rec, int(qn.Add(1)))
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.samples = append(p.samples, smp)
			}
		}(&parts[k])
	}
	wg.Wait()
	out := loopStats{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	net1 := tr.Stats()
	out.wire = net1.Total() - net0.Total()
	out.requests = net1.Requests - net0.Requests
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcs = ms1.NumGC - ms0.NumGC
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / float64(time.Millisecond)
}

func sortedDurations(samples []sample, pick func(sample) time.Duration) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, smp := range samples {
		out[i] = pick(smp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func totals(samples []sample) []time.Duration {
	return sortedDurations(samples, func(s sample) time.Duration { return s.total })
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// firstPlan builds (without executing or caching) the plan of the pool's
// first query; nil for a pass-through query, which has none. The cost
// planner divides by process-global observed per-host throughput, so a run
// records the chain order before and after its window: a flip makes
// latency bimodal and is the first suspect when two runs disagree.
func (s *session) firstPlan(ctx context.Context) (*plan.Plan, error) {
	q, err := sqlparse.Parse(s.pool[0])
	if err != nil || q.XMatch == nil {
		return nil, err
	}
	return s.fed.BuildPlan(ctx, s.pool[0])
}

// orderOf renders a plan's chain call order.
func orderOf(pl *plan.Plan) string {
	if pl == nil {
		return "-"
	}
	names := make([]string, len(pl.Steps))
	for i, st := range pl.Steps {
		names[i] = st.Archive
	}
	return strings.Join(names, ">")
}

// open sets a workload up for one run — generate or ingest the data, launch
// and register the federation, first correct answer through the client —
// timed cfg.setups times. The last federation stays up for the run.
func open(ctx context.Context, cfg runConfig, w *workload, seed int64, in *inputs) (*session, []float64, error) {
	var s *session
	var setups []float64
	for k := 0; k < cfg.setups; k++ {
		if s != nil {
			s.fed.close()
		}
		// One workload's traffic must not steer the next one's plans.
		nettrace.ResetThroughput()
		runtime.GC()
		t0 := time.Now()
		fed, err := w.launch(cfg, seed, filepath.Join(cfg.tmpDir, fmt.Sprintf("%s-%d-%d", w.name, seed, k)))
		if err != nil {
			return nil, nil, fmt.Errorf("launch: %w", err)
		}
		s = &session{w: w, fed: fed, pool: in.pool, want: in.want}
		if _, err := s.queryOnce(ctx, fed.Client(), nil, 0); err != nil {
			fed.close()
			return nil, nil, fmt.Errorf("first answer: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return s, setups, nil
}

// result is one run's outcome: the contract's correct/attempted/failed
// plus named metrics.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  error
	planOrder string
	samples   int
	metrics   []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) merge(l loopStats) {
	r.attempted += l.attempted
	r.failed += l.failed
	if r.firstErr == nil {
		r.firstErr = l.firstErr
	}
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(ctx context.Context, cfg runConfig, w *workload, seed int64, in *inputs) (*result, error) {
	s, setups, err := open(ctx, cfg, w, seed, in)
	if err != nil {
		return nil, err
	}
	defer s.fed.close()
	window := time.Duration(cfg.seconds * float64(time.Second))

	res := &result{workload: w.name, attempted: len(setups)}
	before, err := s.firstPlan(ctx)
	if err != nil {
		return nil, err
	}
	res.merge(s.runLoop(ctx, min(2*time.Second, window/4), nil))
	runtime.GC()
	m := s.runLoop(ctx, window, nil)
	res.merge(m)
	after, err := s.firstPlan(ctx)
	if err != nil {
		return nil, err
	}
	res.planOrder = orderOf(before)
	if orderOf(after) != orderOf(before) {
		res.planOrder += " then " + orderOf(after) + " (CHANGED: first suspect for bimodal latency)"
	}
	res.samples = len(m.samples)
	if len(m.samples) < cfg.minSamples {
		if res.firstErr != nil {
			return nil, res.firstErr
		}
		return nil, fmt.Errorf("%d correct queries in %.1fs, need %d for percentiles: shrink the workload",
			len(m.samples), cfg.seconds, cfg.minSamples)
	}
	tot := totals(m.samples)
	first := sortedDurations(m.samples, func(s sample) time.Duration { return s.first })
	res.add("setup_s", median(setups), "s")
	res.add("qps", float64(len(m.samples))/m.elapsed.Seconds(), "1/s")
	res.add("query_p50_ms", percentile(tot, 0.50), "ms")
	res.add("query_p90_ms", percentile(tot, 0.90), "ms")
	res.add("first_row_p50_ms", percentile(first, 0.50), "ms")
	res.add("wire_kb_per_query", float64(m.wire)/1024/float64(m.attempted), "KB")
	return res, nil
}
