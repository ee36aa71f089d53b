package skynode

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"skyquery/internal/plan"
	"skyquery/internal/soap"
	"skyquery/internal/sphere"
	"skyquery/internal/survey"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// testRegion is the shared sky field for node tests.
func testRegion() sphere.Cap { return sphere.NewCap(185, -0.5, 0.25) }

// testFederation builds nArchives synthetic archives over one field and
// returns running nodes with their HTTP endpoints.
func testFederation(t *testing.T, nBodies int, cfgs []survey.Config) (field *survey.Field, archives []*survey.Archive, nodes []*Node, endpoints []string) {
	t.Helper()
	field = survey.GenerateField(testRegion(), nBodies, 0.4, 1001)
	for _, cfg := range cfgs {
		a := survey.Observe(field, cfg)
		db, err := a.BuildDB()
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Name:         cfg.Name,
			DB:           db,
			PrimaryTable: survey.TableName,
			RACol:        "ra",
			DecCol:       "dec",
			SigmaArcsec:  cfg.SigmaArcsec,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Server())
		t.Cleanup(ts.Close)
		archives = append(archives, a)
		nodes = append(nodes, n)
		endpoints = append(endpoints, ts.URL)
	}
	return field, archives, nodes, endpoints
}

func defaultConfigs() []survey.Config {
	return []survey.Config{
		{Name: "SDSS", SigmaArcsec: 0.1, Completeness: 0.95, Seed: 11, FluxOffset: 3},
		{Name: "TWOMASS", SigmaArcsec: 0.2, Completeness: 0.85, Seed: 12, FluxOffset: 0, ExtraDensity: 0.1},
		{Name: "FIRST", SigmaArcsec: 0.4, Completeness: 0.5, Seed: 13, FluxOffset: -1},
	}
}

func TestNewValidation(t *testing.T) {
	f := survey.GenerateField(testRegion(), 10, 0.4, 1)
	a := survey.Observe(f, survey.Config{Name: "A", SigmaArcsec: 0.1, Completeness: 1, Seed: 2})
	db, _ := a.BuildDB()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no name", func(c *Config) { c.Name = "" }},
		{"no db", func(c *Config) { c.DB = nil }},
		{"bad sigma", func(c *Config) { c.SigmaArcsec = 0 }},
		{"missing table", func(c *Config) { c.PrimaryTable = "Nope" }},
		{"no racol", func(c *Config) { c.RACol = "" }},
		{"bad racol", func(c *Config) { c.RACol = "nope" }},
	}
	for _, tc := range cases {
		cfg := Config{Name: "A", DB: db, PrimaryTable: survey.TableName,
			RACol: "ra", DecCol: "dec", SigmaArcsec: 0.1}
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestInformationService(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 200, defaultConfigs()[:1])
	c := &soap.Client{}
	var info InformationResponse
	if err := c.Call(context.Background(), endpoints[0], ActionInformation, &InformationRequest{}, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "SDSS" || info.SigmaArcsec != 0.1 {
		t.Errorf("info = %+v", info)
	}
	if info.PrimaryTable != survey.TableName || info.RACol != "ra" || info.DecCol != "dec" {
		t.Errorf("info = %+v", info)
	}
	if info.ObjectCount != int64(len(archives[0].Obs)) {
		t.Errorf("objectCount = %d, want %d", info.ObjectCount, len(archives[0].Obs))
	}
	if info.SpatialLevel == 0 {
		t.Error("spatial level missing")
	}
}

func TestMetadataService(t *testing.T) {
	_, _, _, endpoints := testFederation(t, 100, defaultConfigs()[:1])
	c := &soap.Client{}
	var meta MetadataResponse
	if err := c.Call(context.Background(), endpoints[0], ActionMetadata, &MetadataRequest{}, &meta); err != nil {
		t.Fatal(err)
	}
	if len(meta.Tables) != 1 {
		t.Fatalf("tables = %+v", meta.Tables)
	}
	tm := meta.Tables[0]
	if tm.Name != survey.TableName || !tm.Spatial {
		t.Errorf("table meta = %+v", tm)
	}
	wantCols := len(survey.Schema())
	if len(tm.Columns) != wantCols {
		t.Errorf("columns = %d, want %d", len(tm.Columns), wantCols)
	}
}

func TestQueryServiceCount(t *testing.T) {
	_, archives, nodes, endpoints := testFederation(t, 300, defaultConfigs()[:1])
	c := &soap.Client{}
	var first soap.ChunkedData
	sql := fmt.Sprintf("SELECT COUNT(*) FROM %s o WHERE AREA(185, -0.5, %g)", survey.TableName, 0.25*3600)
	if err := c.Call(context.Background(), endpoints[0], ActionQuery, &QueryRequest{SQL: sql}, &first); err != nil {
		t.Fatal(err)
	}
	ds, err := soap.FetchAll(context.Background(), c, endpoints[0], &first)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 1 {
		t.Fatalf("count result rows = %d", ds.NumRows())
	}
	got := ds.Rows[0][0].AsInt()
	// All observations lie inside the generation region, which equals the
	// AREA, except those scattered just past the boundary.
	if got < int64(float64(len(archives[0].Obs))*0.98) {
		t.Errorf("count = %d of %d observations", got, len(archives[0].Obs))
	}
	q, _, _ := nodes[0].Stats()
	if q != 1 {
		t.Errorf("queriesServed = %d", q)
	}
}

func TestQueryServiceErrors(t *testing.T) {
	_, _, _, endpoints := testFederation(t, 50, defaultConfigs()[:1])
	c := &soap.Client{}
	var first soap.ChunkedData
	for _, sql := range []string{
		"not sql at all",
		"SELECT o.nope FROM PhotoObject o",
		"SELECT o.object_id FROM Missing o",
	} {
		err := c.Call(context.Background(), endpoints[0], ActionQuery, &QueryRequest{SQL: sql}, &first)
		if err == nil {
			t.Errorf("query %q should fail", sql)
		}
	}
}

// buildPlan constructs a plan over the test federation in the given call
// order, with FIRST optionally a drop-out.
func buildPlan(archives []*survey.Archive, endpoints []string, order []int, dropOut map[string]bool, threshold float64) plan.Plan {
	reg := testRegion()
	ra, dec := reg.Center.RaDec()
	p := plan.Plan{
		QueryID:   "test-1",
		Threshold: threshold,
		Area:      plan.Area{RA: ra, Dec: dec, RadiusArcsec: sphere.ToArcsec(reg.Radius)},
	}
	aliases := map[string]string{"SDSS": "O", "TWOMASS": "T", "FIRST": "P"}
	for _, i := range order {
		cfg := archives[i].Config
		step := plan.Step{
			Archive:     cfg.Name,
			Alias:       aliases[cfg.Name],
			Endpoint:    endpoints[i],
			Table:       survey.TableName,
			SigmaArcsec: cfg.SigmaArcsec,
			DropOut:     dropOut[cfg.Name],
		}
		if !step.DropOut {
			step.Columns = []string{"object_id"}
		}
		p.Steps = append(p.Steps, step)
	}
	return p
}

// runChain invokes the CrossMatch service of the first step and drains the
// tuple response.
func runChain(t *testing.T, p plan.Plan) [][]value.Value {
	t.Helper()
	c := &soap.Client{}
	var first soap.ChunkedData
	if err := c.Call(context.Background(), p.Steps[0].Endpoint, ActionCrossMatch, &CrossMatchRequest{Plan: p}, &first); err != nil {
		t.Fatal(err)
	}
	ds, err := soap.FetchAll(context.Background(), c, p.Steps[0].Endpoint, &first)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Rows
}

// oracleKeys runs the brute-force matcher over the same data and returns
// the sorted "k1|k2|..." key strings of the matches.
func oracleKeys(t *testing.T, archives []*survey.Archive, mandatoryOrder []string, dropOuts []string, threshold float64) []string {
	t.Helper()
	byName := map[string]*survey.Archive{}
	for _, a := range archives {
		byName[a.Config.Name] = a
	}
	region := testRegion()
	var sets []xmatch.ArchiveSet
	for _, name := range mandatoryOrder {
		set := byName[name].ObservationSet(false)
		set.Obs = filterInRegion(byName[name], region)
		sets = append(sets, set)
	}
	for _, name := range dropOuts {
		set := byName[name].ObservationSet(true)
		set.Obs = filterInRegion(byName[name], region)
		sets = append(sets, set)
	}
	matches := xmatch.BruteForce(sets, threshold)
	var keys []string
	for _, m := range matches {
		parts := make([]string, len(m.Keys))
		for i, k := range m.Keys {
			parts[i] = fmt.Sprint(k)
		}
		keys = append(keys, strings.Join(parts, "|"))
	}
	sort.Strings(keys)
	return keys
}

func filterInRegion(a *survey.Archive, region sphere.Cap) []xmatch.Observation {
	var out []xmatch.Observation
	for _, o := range a.Obs {
		if region.Contains(o.Pos) {
			out = append(out, xmatch.Observation{Pos: o.Pos, Key: o.ObjectID})
		}
	}
	return out
}

// chainKeys extracts sorted "k1|k2|..." keys from chain tuples given the
// column order of the mandatory aliases.
func chainKeys(rows [][]value.Value, nCols int, aliasOrder []int) []string {
	var keys []string
	for _, row := range rows {
		parts := make([]string, len(aliasOrder))
		for i, col := range aliasOrder {
			parts[i] = fmt.Sprint(row[xmatch.NumAccCols+col].AsInt())
		}
		keys = append(keys, strings.Join(parts, "|"))
	}
	sort.Strings(keys)
	return keys
}

func TestChainMatchesBruteForceTwoArchives(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 400, defaultConfigs()[:2])
	const thr = 3.5
	p := buildPlan(archives, endpoints, []int{0, 1}, nil, thr)
	rows := runChain(t, p)
	// Call order SDSS,TWOMASS: execution seeds at TWOMASS, extends at
	// SDSS. Tuple payload: [T.object_id, O.object_id].
	got := chainKeys(rows, 2, []int{1, 0})
	want := oracleKeys(t, archives, []string{"SDSS", "TWOMASS"}, nil, thr)
	compareKeys(t, got, want)
}

func TestChainMatchesBruteForceThreeArchives(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 300, defaultConfigs())
	const thr = 3.0
	p := buildPlan(archives, endpoints, []int{0, 1, 2}, nil, thr)
	rows := runChain(t, p)
	// Execution order FIRST, TWOMASS, SDSS → payload [P.id, T.id, O.id].
	got := chainKeys(rows, 3, []int{2, 1, 0})
	want := oracleKeys(t, archives, []string{"SDSS", "TWOMASS", "FIRST"}, nil, thr)
	compareKeys(t, got, want)
}

func TestChainOrderIndependence(t *testing.T) {
	// §5.4: the result set must not depend on the chain order.
	_, archives, _, endpoints := testFederation(t, 250, defaultConfigs())
	const thr = 3.0
	pa := buildPlan(archives, endpoints, []int{0, 1, 2}, nil, thr)
	pb := buildPlan(archives, endpoints, []int{2, 0, 1}, nil, thr)
	rowsA := runChain(t, pa)
	rowsB := runChain(t, pb)
	// Key positions: execution order reversed call order.
	keysA := chainKeysByAlias(rowsA, pa)
	keysB := chainKeysByAlias(rowsB, pb)
	compareKeys(t, keysA, keysB)
}

// chainKeysByAlias renders keys sorted by alias name so different chain
// orders are comparable.
func chainKeysByAlias(rows [][]value.Value, p plan.Plan) []string {
	// Payload columns appear in execution order (reverse call order),
	// one object_id per mandatory archive.
	var aliases []string
	for i := len(p.Steps) - 1; i >= 0; i-- {
		if !p.Steps[i].DropOut {
			aliases = append(aliases, p.Steps[i].Alias)
		}
	}
	var keys []string
	for _, row := range rows {
		kv := map[string]string{}
		for i, alias := range aliases {
			kv[alias] = fmt.Sprint(row[xmatch.NumAccCols+i].AsInt())
		}
		var names []string
		for a := range kv {
			names = append(names, a)
		}
		sort.Strings(names)
		var parts []string
		for _, a := range names {
			parts = append(parts, a+"="+kv[a])
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return keys
}

func TestChainDropOut(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 300, defaultConfigs())
	const thr = 3.0
	// FIRST is the drop-out; call order: FIRST (dropout first), SDSS, TWOMASS.
	p := buildPlan(archives, endpoints, []int{2, 0, 1}, map[string]bool{"FIRST": true}, thr)
	rows := runChain(t, p)
	// Execution: TWOMASS seeds, SDSS extends, FIRST vetoes.
	got := chainKeys(rows, 2, []int{1, 0})
	want := oracleKeys(t, archives, []string{"SDSS", "TWOMASS"}, []string{"FIRST"}, thr)
	compareKeys(t, got, want)
	if len(got) == 0 {
		t.Error("degenerate test: no drop-out matches at all")
	}
}

func compareKeys(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("matches = %d, oracle = %d\n got: %v\nwant: %v", len(got), len(want), head(got), head(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func head(s []string) []string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

func TestChainLocalPredicate(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 300, defaultConfigs()[:2])
	const thr = 3.5
	p := buildPlan(archives, endpoints, []int{0, 1}, nil, thr)
	// Only galaxies from SDSS.
	p.Steps[0].LocalWhere = "O.type = 'GALAXY'"
	rows := runChain(t, p)
	// Verify every returned SDSS object is a galaxy.
	byID := map[int64]bool{}
	for _, o := range archives[0].Obs {
		byID[o.ObjectID] = o.Galaxy
	}
	if len(rows) == 0 {
		t.Fatal("no matches")
	}
	for _, row := range rows {
		oid := row[xmatch.NumAccCols+1].AsInt()
		if !byID[oid] {
			t.Fatalf("non-galaxy SDSS object %d in result", oid)
		}
	}
}

// TestStatsEstimateHistoryIndependent pins that a node's StatsSummary
// answer is a function of its data alone: running chains whose plans
// carried a badly-off estimate for the same table must not move it.
func TestStatsEstimateHistoryIndependent(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 300, defaultConfigs()[:2])
	ctx := context.Background()
	c := &soap.Client{}
	p := buildPlan(archives, endpoints, []int{1, 0}, nil, 3.5)
	seed := &p.Steps[len(p.Steps)-1]
	seed.LocalWhere = "O.type = 'GALAXY'"
	statsReq := &StatsRequest{Table: seed.Table, Alias: seed.Alias, LocalWhere: seed.LocalWhere, Area: p.Area}
	probe := func() StatsResponse {
		var resp StatsResponse
		if err := c.Call(ctx, seed.Endpoint, ActionStats, statsReq, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	before := probe()
	if !before.HasStats {
		t.Fatal("seed node serves no column statistics")
	}

	var first soap.ChunkedData
	sql := fmt.Sprintf("SELECT COUNT(*) FROM %s O WHERE AREA(%g, %g, %g) AND %s",
		seed.Table, p.Area.RA, p.Area.Dec, p.Area.RadiusArcsec, seed.LocalWhere)
	if err := c.Call(ctx, seed.Endpoint, ActionQuery, &QueryRequest{SQL: sql}, &first); err != nil {
		t.Fatal(err)
	}
	ds, err := soap.FetchAll(ctx, c, seed.Endpoint, &first)
	if err != nil {
		t.Fatal(err)
	}
	actual := ds.Rows[0][0].AsInt()
	if actual == 0 {
		t.Fatal("seed step selects nothing")
	}
	seed.StatsBased = true
	seed.EstRows = 4 * float64(actual)
	for i := 0; i < 3; i++ {
		if rows := runChain(t, p); len(rows) == 0 {
			t.Fatal("chain returned no matches")
		}
	}
	if after := probe(); after != before {
		t.Errorf("StatsSummary moved with query history:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestChainCrossPredicate(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 300, defaultConfigs()[:2])
	const thr = 3.5
	p := buildPlan(archives, endpoints, []int{0, 1}, nil, thr)
	p.Steps[0].Columns = []string{"object_id", "flux"}
	p.Steps[1].Columns = []string{"object_id", "flux"}
	// SDSS fluxes are offset +3 vs TWOMASS +0, so this keeps most pairs
	// but the filter must hold exactly.
	p.Steps[0].CrossWhere = []string{"(O.flux - T.flux) > 3"}
	rows := runChain(t, p)
	if len(rows) == 0 {
		t.Fatal("no matches survived the flux predicate")
	}
	for _, row := range rows {
		tFlux, _ := row[xmatch.NumAccCols+1].AsFloat()
		oFlux, _ := row[xmatch.NumAccCols+3].AsFloat()
		if !(oFlux-tFlux > 3) {
			t.Fatalf("cross predicate violated: O.flux=%g T.flux=%g", oFlux, tFlux)
		}
	}
}

func TestChainEvents(t *testing.T) {
	f := survey.GenerateField(testRegion(), 100, 0.4, 55)
	var events []string
	mk := func(name string, sigma float64, seed int64) (*Node, string) {
		a := survey.Observe(f, survey.Config{Name: name, SigmaArcsec: sigma, Completeness: 1, Seed: seed})
		db, _ := a.BuildDB()
		n, err := New(Config{Name: name, DB: db, PrimaryTable: survey.TableName,
			RACol: "ra", DecCol: "dec", SigmaArcsec: sigma,
			OnEvent: func(e Event) { events = append(events, e.Node+":"+e.Kind) }})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Server())
		t.Cleanup(ts.Close)
		return n, ts.URL
	}
	_, epA := mk("A", 0.1, 3)
	_, epB := mk("B", 0.2, 4)
	reg := testRegion()
	ra, dec := reg.Center.RaDec()
	p := plan.Plan{
		QueryID:   "ev-1",
		Threshold: 3.5,
		Area:      plan.Area{RA: ra, Dec: dec, RadiusArcsec: sphere.ToArcsec(reg.Radius)},
		Steps: []plan.Step{
			{Archive: "A", Alias: "a", Endpoint: epA, Table: survey.TableName, SigmaArcsec: 0.1, Columns: []string{"object_id"}},
			{Archive: "B", Alias: "b", Endpoint: epB, Table: survey.TableName, SigmaArcsec: 0.2, Columns: []string{"object_id"}},
		},
	}
	runChain(t, p)
	want := []string{
		"A:xmatch.recv", "A:xmatch.forward",
		"B:xmatch.recv", "B:xmatch.seed", "B:xmatch.return",
		"A:xmatch.step", "A:xmatch.return",
	}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, events[i], want[i], events)
		}
	}
}

func TestCrossMatchRejectsForeignPlan(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 50, defaultConfigs()[:2])
	p := buildPlan(archives, endpoints, []int{0, 1}, nil, 3.5)
	// Rename step 0 so the receiving node is not in the plan.
	p.Steps[0].Archive = "SOMEONE_ELSE"
	c := &soap.Client{}
	var first soap.ChunkedData
	err := c.Call(context.Background(), endpoints[0], ActionCrossMatch, &CrossMatchRequest{Plan: p}, &first)
	if err == nil || !strings.Contains(err.Error(), "not part of plan") {
		t.Errorf("err = %v", err)
	}
}

func TestCrossMatchRejectsInvalidPlan(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 50, defaultConfigs()[:2])
	p := buildPlan(archives, endpoints, []int{0, 1}, nil, 3.5)
	p.Threshold = -1
	c := &soap.Client{}
	var first soap.ChunkedData
	if err := c.Call(context.Background(), endpoints[0], ActionCrossMatch, &CrossMatchRequest{Plan: p}, &first); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestWSDLGeneration(t *testing.T) {
	_, _, nodes, endpoints := testFederation(t, 10, defaultConfigs()[:1])
	if err := nodes[0].SetWSDL(endpoints[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nodes[0].Server().WSDL, "CrossMatch") {
		t.Error("WSDL missing CrossMatch operation")
	}
}

func TestTupleStats(t *testing.T) {
	_, archives, nodes, endpoints := testFederation(t, 200, defaultConfigs()[:2])
	p := buildPlan(archives, endpoints, []int{0, 1}, nil, 3.5)
	rows := runChain(t, p)
	_, in0, out0 := nodes[0].Stats()
	_, in1, out1 := nodes[1].Stats()
	if in1 != 0 {
		t.Errorf("seed node received %d tuples", in1)
	}
	if out1 == 0 {
		t.Error("seed node emitted nothing")
	}
	if in0 != out1 {
		t.Errorf("node0 in (%d) != node1 out (%d)", in0, out1)
	}
	if out0 != int64(len(rows)) {
		t.Errorf("node0 out = %d, rows = %d", out0, len(rows))
	}
}
