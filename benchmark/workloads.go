package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"

	"skyquery"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
	"skyquery/internal/value"
)

// The sky field every workload populates: the paper's example field, a
// 0.25 degree cap at (185, -0.5). AREA(185, -0.5, 900) covers all of it.
const (
	fieldRA, fieldDec = 185.0, -0.5
	fieldRadiusDeg    = 0.25
)

// workload is one named set of inputs: the data, the federation layout
// serving it, and the seeded pool of SQL texts the clients cycle through.
// BENCHMARK.json records why each one exists.
type workload struct {
	name string
	// bodies is the number of true bodies in the field at scale 1.
	bodies int
	// surveys names the default surveys (SDSS, TWOMASS, FIRST) that exist
	// in this workload's federation.
	surveys []string
	shards  int
	codec   skyquery.Codec
	// clients is the closed-loop client count, capped at NumCPU so the
	// load generator never contends with itself for a core.
	clients int
	// cold serves the archive from a disk store that was ingested through
	// the WAL, closed and reopened with a block cache far smaller than the
	// table.
	cold bool
	// pool builds the SQL texts from the seed. A pool of one is re-sent
	// verbatim (plan-cache hit path); a pool larger than two plan-cache
	// generations (2 x 256) misses on every query when cycled in order.
	pool func(rng *rand.Rand) []string
}

// The xmatch trio shares one query and one data set, so the differences
// between them are single-factor (shards, codec). 2500 bodies (the ISSUE
// planned 6000) keeps the two slow ones at 62-67 ms/query on the 2-core
// seed box: ~220 samples inside the 15 s window the run-time cap allows,
// so a third more latency still leaves the 150 the ISSUE asks for and the
// harness's own floor of 100 is a 2.2x slowdown away.
const xmatchBodies = 2500

const paperExample = `SELECT O.object_id, T.object_id, P.object_id, O.flux, T.flux
FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T, P) < 3.5
AND O.type = 'GALAXY' AND (O.flux - T.flux) > 2`

const wideScan = `SELECT O.object_id, O.body_id, O.ra, O.dec, O.flux, O.type, O.flags
FROM SDSS:PhotoObject O`

func fixedPool(sql string) func(*rand.Rand) []string {
	return func(*rand.Rand) []string { return []string{sql} }
}

// conePool draws 60" two-archive cones at centres inside the field (the
// whole cone stays inside it). 1024 distinct texts cycled in order always
// miss the portal's 2 x 256-entry plan cache.
func conePool(rng *rand.Rand) []string {
	const n = 1024
	out := make([]string, n)
	for i := range out {
		r := 0.19 * math.Sqrt(rng.Float64())
		phi := 2 * math.Pi * rng.Float64()
		dec := fieldDec + r*math.Sin(phi)
		ra := fieldRA + r*math.Cos(phi)/math.Cos(dec*math.Pi/180)
		out[i] = fmt.Sprintf(`SELECT O.object_id, T.object_id, O.flux, T.flux
FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
WHERE AREA(%.6f, %.6f, 60) AND XMATCH(O, T) < 3.5`, ra, dec)
	}
	return out
}

// coldPool mixes three selective single-archive shapes over the cold
// store: a zone-prunable range on ra (rows are stored in trixel order, so
// a block's ra extent is narrow), a predicate no zone map can prune, and
// an ORDER BY ... TOP 20 over a few thousand qualifying rows. Results are
// tiny and the three shapes cost 2-6 ms each; the scan is the work.
func coldPool(rng *rand.Rand) []string {
	const n = 48
	out := make([]string, 0, n)
	for len(out) < n {
		lo := fieldRA - 0.2 + 0.4*rng.Float64()
		out = append(out,
			fmt.Sprintf(`SELECT O.object_id, O.ra, O.dec, O.flux FROM SDSS:PhotoObject O
WHERE O.ra > %.6f AND O.ra < %.6f`, lo, lo+0.002),
			fmt.Sprintf(`SELECT O.object_id, O.flux, O.type FROM SDSS:PhotoObject O
WHERE O.flux > %.3f AND O.type LIKE 'GAL%%'`, 100+20*rng.Float64()),
			fmt.Sprintf(`SELECT TOP 20 O.object_id, O.flux FROM SDSS:PhotoObject O
WHERE O.flux > %.3f ORDER BY O.flux DESC`, 60+10*rng.Float64()))
	}
	return out
}

var workloads = []workload{
	{name: "xmatch_flat", bodies: xmatchBodies, surveys: []string{"SDSS", "TWOMASS", "FIRST"},
		clients: 1, pool: fixedPool(paperExample)},
	{name: "xmatch_sharded", bodies: xmatchBodies, surveys: []string{"SDSS", "TWOMASS", "FIRST"},
		shards: 4, clients: 1, pool: fixedPool(paperExample)},
	{name: "xmatch_xml", bodies: xmatchBodies, surveys: []string{"SDSS", "TWOMASS", "FIRST"},
		codec: skyquery.CodecXML, clients: 1, pool: fixedPool(paperExample)},
	{name: "scan_wide", bodies: 20000, surveys: []string{"SDSS"},
		clients: 1, pool: fixedPool(wideScan)},
	{name: "cone_small", bodies: 20000, surveys: []string{"SDSS", "TWOMASS"},
		clients: 2, pool: conePool},
	{name: "scan_cold", bodies: 60000, surveys: []string{"SDSS"},
		clients: 1, cold: true, pool: coldPool},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func (w *workload) clientCount() int {
	return min(w.clients, runtime.NumCPU())
}

func (w *workload) scaledBodies(scale float64) int {
	return max(int(float64(w.bodies)*scale), 200)
}

// surveySpecs returns the workload's surveys with their private seeds
// shifted by the run seed, so the whole sky — true bodies and every
// archive's observation noise — is a function of --seed.
func (w *workload) surveySpecs(seed int64) []skyquery.SurveySpec {
	var out []skyquery.SurveySpec
	for _, s := range skyquery.DefaultSurveys() {
		for _, name := range w.surveys {
			if s.Name == name {
				s.Seed += 1000 * seed
				out = append(out, s)
			}
		}
	}
	return out
}

// inputs is what a (workload, seed) pair fixes before any federation is
// measured: the SQL pool and the oracle's answer to every entry.
type inputs struct {
	pool []string
	want []answer
}

func (w *workload) inputs(ctx context.Context, cfg runConfig, seed int64) (*inputs, error) {
	pool := w.pool(rand.New(rand.NewSource(seed)))
	want, err := w.expectedAnswers(ctx, cfg, seed, pool)
	if err != nil {
		return nil, err
	}
	return &inputs{pool: pool, want: want}, nil
}

// The cold store keeps 4 sealed blocks resident and caches 16 hydrated
// column blocks; a 60000-body SDSS seals ~56 blocks x 7 columns, so almost
// every scan hydrates from disk.
var coldStoreOptions = storage.StoreOptions{HotBlocks: 4, CacheBlocks: 16}

// federation is a launched workload: the running federation plus what the
// layer replays need to reach below it.
type federation struct {
	*skyquery.Federation
	// store is the reopened disk store of a cold workload (nil otherwise).
	store   *storage.Store
	workDir string
}

func (f *federation) close() {
	f.Close()
	if f.store != nil {
		f.store.Close()
	}
	if f.workDir != "" {
		os.RemoveAll(f.workDir)
	}
}

// launch generates the workload's data from the seed and starts its
// federation. For a cold workload the archive takes the write path first:
// ingest through the WAL into a fresh store under dir, close, recover.
func (w *workload) launch(cfg runConfig, seed int64, dir string) (*federation, error) {
	opts := []skyquery.Option{skyquery.WithCodec(w.codec)}
	if !w.cold {
		fed, err := skyquery.LaunchWith(append(opts,
			skyquery.WithBodies(w.scaledBodies(cfg.scale)),
			skyquery.WithSeed(seed),
			skyquery.WithSurveys(w.surveySpecs(seed)...),
			skyquery.WithShards(w.shards))...)
		if err != nil {
			return nil, err
		}
		return &federation{Federation: fed}, nil
	}

	spec := w.surveySpecs(seed)[0]
	field := skyquery.GenerateField(skyquery.NewCap(fieldRA, fieldDec, fieldRadiusDeg),
		w.scaledBodies(cfg.scale), 0.4, seed)
	archive := survey.Observe(field, spec)
	if err := ingest(archive, dir); err != nil {
		return nil, err
	}
	store, err := storage.OpenStore(dir, coldStoreOptions)
	if err != nil {
		return nil, err
	}
	if rec := store.Recovery(); len(rec) != 1 || rec[0].Torn || rec[0].DurableRows+rec[0].ReplayedRows != len(archive.Obs) {
		store.Close()
		return nil, fmt.Errorf("recovery %+v, want %d clean rows", rec, len(archive.Obs))
	}
	fed, err := skyquery.LaunchWith(append(opts, skyquery.WithNodes(skyquery.NodeSpec{
		Name: spec.Name, DB: store.DB(), PrimaryTable: survey.TableName,
		RACol: "ra", DecCol: "dec", SigmaArcsec: spec.SigmaArcsec,
	}))...)
	if err != nil {
		store.Close()
		return nil, err
	}
	return &federation{Federation: fed, store: store, workDir: dir}, nil
}

// ingest appends the archive to a fresh disk store in canonical trixel
// order, exactly as survey.Archive.BuildDB loads an in-memory table, and
// closes the store.
func ingest(a *survey.Archive, dir string) error {
	store, err := storage.OpenStore(dir, coldStoreOptions)
	if err != nil {
		return err
	}
	tbl, err := store.Create(survey.TableName, survey.Schema(),
		&storage.SpatialConfig{RACol: "ra", DecCol: "dec", Level: a.SpatialLevel()})
	if err != nil {
		store.Close()
		return err
	}
	for _, o := range a.SortedObs() {
		ra, dec := o.Pos.RaDec()
		typ := "STAR"
		if o.Galaxy {
			typ = "GALAXY"
		}
		if err := tbl.Append(value.Int(o.ObjectID), value.Int(o.BodyID), value.Float(ra),
			value.Float(dec), value.Float(o.Flux), value.String(typ), value.Null); err != nil {
			store.Close()
			return err
		}
	}
	return store.Close()
}

// expectedAnswers computes every pool entry's answer on an independent
// federation: unsharded, binary, in RAM, executed by the pull-to-portal
// baseline, which shares no chain-step code with the measured path. The
// sharded, XML and disk-backed workloads must reproduce it exactly — the
// repo's bit-identical invariant.
func (w *workload) expectedAnswers(ctx context.Context, cfg runConfig, seed int64, pool []string) ([]answer, error) {
	oracle, err := skyquery.LaunchWith(
		skyquery.WithBodies(w.scaledBodies(cfg.scale)),
		skyquery.WithSeed(seed),
		skyquery.WithSurveys(w.surveySpecs(seed)...))
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	out := make([]answer, len(pool))
	errs := make(chan error, 2)
	// Two workers: the box has two cores and the pull queries are
	// independent.
	for k := 0; k < 2; k++ {
		go func(k int) {
			for i := k; i < len(pool); i += 2 {
				res, err := oracle.PullQuery(ctx, pool[i])
				if err != nil {
					errs <- fmt.Errorf("oracle query %d: %w", i, err)
					return
				}
				for _, row := range res.Rows {
					out[i].add(row)
				}
			}
			errs <- nil
		}(k)
	}
	var first error
	for k := 0; k < 2; k++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return out, first
}
