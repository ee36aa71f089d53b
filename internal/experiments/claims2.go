package experiments

import (
	"context"
	"fmt"
	"time"

	"skyquery"
)

// C5ChainVsPull compares the paper's daisy chain with the pull-to-portal
// architecture it rejects (§5.1), sweeping the match selectivity via a
// local flux predicate on the densest archive.
func C5ChainVsPull() (*Table, error) {
	fed, err := skyquery.Launch(skyquery.Options{Bodies: 3000})
	if err != nil {
		return nil, err
	}
	defer fed.Close()

	t := &Table{
		ID:     "C5",
		Title:  "§5.1 daisy chain vs pull-to-portal (bytes shipped, wall time)",
		Header: []string{"selectivity", "matches", "chain bytes", "pull bytes", "pull/chain", "chain time", "pull time"},
	}
	for _, tc := range []struct {
		name string
		pred string
	}{
		{"high (no predicate)", ""},
		{"medium (flux > 15)", "O.flux > 15"},
		{"low (flux > 35)", "O.flux > 35"},
	} {
		sql := `SELECT O.object_id, T.object_id
			FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
			WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T, P) < 3.5`
		if tc.pred != "" {
			sql += " AND " + tc.pred
		}
		fed.Transport.Reset()
		start := time.Now()
		res, err := fed.Query(context.Background(), sql)
		if err != nil {
			return nil, err
		}
		chainTime := time.Since(start)
		chain := fed.Transport.Stats()

		fed.Transport.Reset()
		start = time.Now()
		pullRes, err := fed.PullQuery(context.Background(), sql)
		if err != nil {
			return nil, err
		}
		pullTime := time.Since(start)
		pull := fed.Transport.Stats()

		if res.NumRows() != pullRes.NumRows() {
			return nil, fmt.Errorf("C5: chain found %d, pull %d", res.NumRows(), pullRes.NumRows())
		}
		ratio := float64(pull.Total()) / float64(chain.Total())
		t.Add(tc.name, res.NumRows(), chain.Total(), pull.Total(),
			fmt.Sprintf("%.2fx", ratio), chainTime, pullTime)
	}
	t.Notes = append(t.Notes,
		"expected shape: the chain's advantage grows as selectivity drops — pull always ships every candidate row")
	return t, nil
}

// C6Scaling measures the N-step distributed evaluation of §5.4: archives
// N = 2..5 over the same field, and an AREA radius sweep at N = 3.
func C6Scaling() (*Table, error) {
	t := &Table{
		ID:     "C6",
		Title:  "§5.4 scaling with archive count N and AREA radius",
		Header: []string{"sweep", "value", "matches", "bytes on wire", "wall time"},
	}
	// Archive count sweep.
	for n := 2; n <= 5; n++ {
		var surveys []skyquery.SurveySpec
		aliases := ""
		from := ""
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("S%d", i+1)
			surveys = append(surveys, skyquery.SurveySpec{
				Name:        name,
				SigmaArcsec: 0.1 + 0.1*float64(i),
				// Keep survivor counts meaningful as N grows.
				Completeness: 0.9,
				Seed:         int64(41 + i),
			})
			alias := fmt.Sprintf("a%d", i+1)
			if i > 0 {
				aliases += ", "
				from += ", "
			}
			aliases += alias
			from += fmt.Sprintf("%s:PhotoObject %s", name, alias)
		}
		fed, err := skyquery.Launch(skyquery.Options{Bodies: 1500, Surveys: surveys})
		if err != nil {
			return nil, err
		}
		sql := fmt.Sprintf(`SELECT a1.object_id FROM %s
			WHERE AREA(185.0, -0.5, 900) AND XMATCH(%s) < 3.5`, from, aliases)
		fed.Transport.Reset()
		start := time.Now()
		res, err := fed.Query(context.Background(), sql)
		if err != nil {
			fed.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		stats := fed.Transport.Stats()
		t.Add("archives N", n, res.NumRows(), stats.Total(), elapsed)
		fed.Close()
	}

	// Radius sweep at N = 3 over a wider field.
	fed, err := skyquery.Launch(skyquery.Options{
		Bodies: 4000,
		Region: skyquery.NewCap(185, -0.5, 1.0),
	})
	if err != nil {
		return nil, err
	}
	defer fed.Close()
	for _, radiusArcsec := range []float64{225, 450, 900, 1800, 3600} {
		sql := fmt.Sprintf(`SELECT O.object_id
			FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
			WHERE AREA(185.0, -0.5, %g) AND XMATCH(O, T, P) < 3.5`, radiusArcsec)
		fed.Transport.Reset()
		start := time.Now()
		res, err := fed.Query(context.Background(), sql)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		stats := fed.Transport.Stats()
		t.Add("radius", formatRadius(radiusArcsec/3600), res.NumRows(), stats.Total(), elapsed)
	}
	t.Notes = append(t.Notes,
		"expected shape: bytes and time grow roughly with the survivor count (area for the radius sweep);",
		"adding archives multiplies chain steps but each step's survivors shrink with completeness^N")
	return t, nil
}

// C7PerfQueries measures §5.3's premise that performance queries are
// cheap relative to the cross match they optimize: "de-serialization of
// these messages is not an expensive operation as they are single
// integers".
func C7PerfQueries() (*Table, error) {
	fed, err := skyquery.Launch(skyquery.Options{Bodies: 3000, RecordCalls: true})
	if err != nil {
		return nil, err
	}
	defer fed.Close()

	const reps = 3
	t := &Table{
		ID:     "C7",
		Title:  "§5.3 performance-query cost vs full cross match",
		Header: []string{"phase", "wall time (avg)", "bytes on wire", "notes"},
	}

	// Planning only (includes the async count-star fan-out).
	fed.Transport.Reset()
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := fed.BuildPlan(context.Background(), paperQuery); err != nil {
			return nil, err
		}
	}
	planTime := time.Since(start) / reps
	planStats := fed.Transport.Stats()
	perfBytes := planStats.Total() / reps

	// Largest single performance-query response.
	var maxResp int64
	for _, c := range fed.Transport.Calls() {
		if short(c.Action) == "Query" && c.BytesReceived > maxResp {
			maxResp = c.BytesReceived
		}
	}

	// Full query.
	fed.Transport.Reset()
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := fed.Query(context.Background(), paperQuery); err != nil {
			return nil, err
		}
	}
	fullTime := time.Since(start) / reps
	fullStats := fed.Transport.Stats()

	t.Add("plan (3 async count-star probes)", planTime, perfBytes,
		fmt.Sprintf("largest probe response: %d B (a single integer)", maxResp))
	t.Add("full cross match", fullTime, fullStats.Total()/reps,
		fmt.Sprintf("%.1f%% of bytes spent on probes", 100*float64(perfBytes)/float64(fullStats.Total()/reps)))
	t.Notes = append(t.Notes,
		"expected shape: probes cost a small fraction of the query they optimize, and their",
		"responses are tiny — the paper also credits them with warming the node caches")
	return t, nil
}
