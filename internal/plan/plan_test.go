package plan

import (
	"strings"
	"testing"
)

func samplePlan() *Plan {
	return &Plan{
		QueryID:   "q-1",
		Threshold: 3.5,
		Area:      Area{RA: 185, Dec: -0.5, RadiusArcsec: 4.5},
		SelectList: []string{
			"O.object_id", "O.right_ascension", "T.object_id",
		},
		Steps: []Step{
			{Archive: "SDSS", Alias: "O", Endpoint: "http://sdss/soap", Table: "Photo_Object",
				LocalWhere: "O.type = 'GALAXY'", SigmaArcsec: 0.1, Count: 5000,
				Columns: []string{"object_id", "right_ascension", "i_flux"}},
			{Archive: "TWOMASS", Alias: "T", Endpoint: "http://tm/soap", Table: "Photo_Primary",
				SigmaArcsec: 0.2, Count: 800,
				CrossWhere: []string{"(O.i_flux - T.i_flux) > 2"},
				Columns:    []string{"object_id", "i_flux"}},
		},
		ChunkRows: 1000,
	}
}

func TestValidateOK(t *testing.T) {
	if err := samplePlan().Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateErrors(t *testing.T) {
	mutations := []struct {
		name    string
		mutate  func(*Plan)
		wantSub string
	}{
		{"no steps", func(p *Plan) { p.Steps = nil }, "no steps"},
		{"bad threshold", func(p *Plan) { p.Threshold = 0 }, "threshold"},
		{"bad radius", func(p *Plan) { p.Area.RadiusArcsec = -1 }, "radius"},
		{"incomplete step", func(p *Plan) { p.Steps[0].Endpoint = "" }, "incomplete"},
		{"duplicate archive", func(p *Plan) { p.Steps[1].Archive = "SDSS" }, "twice"},
		{"bad sigma", func(p *Plan) { p.Steps[0].SigmaArcsec = 0 }, "sigma"},
		{"all dropouts", func(p *Plan) { p.Steps[0].DropOut = true; p.Steps[1].DropOut = true }, "mandatory"},
		{"dropout last", func(p *Plan) { p.Steps[1].DropOut = true }, "cannot be last"},
		{"dropout cross predicate", func(p *Plan) {
			p.Steps[0].DropOut = true
			p.Steps[0].CrossWhere = []string{"(O.i_flux - T.i_flux) > 2"}
		}, "cross predicates"},
	}
	for _, m := range mutations {
		p := samplePlan()
		m.mutate(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: expected error", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.wantSub) {
			t.Errorf("%s: error = %v, want substring %q", m.name, err, m.wantSub)
		}
	}
}

func TestStepIndexAndNext(t *testing.T) {
	p := samplePlan()
	if got := p.StepIndex("TWOMASS"); got != 1 {
		t.Errorf("StepIndex = %d", got)
	}
	if got := p.StepIndex("NOPE"); got != -1 {
		t.Errorf("StepIndex missing = %d", got)
	}
	next := p.Next("SDSS")
	if next == nil || next.Archive != "TWOMASS" {
		t.Errorf("Next(SDSS) = %+v", next)
	}
	if p.Next("TWOMASS") != nil {
		t.Error("Next of last step should be nil")
	}
	if p.Next("NOPE") != nil {
		t.Error("Next of unknown archive should be nil")
	}
}

func TestOrderRule(t *testing.T) {
	steps := []Step{
		{Archive: "A", Count: 100},
		{Archive: "B", Count: 9000},
		{Archive: "C", Count: 40, DropOut: true},
		{Archive: "D", Count: 700},
		{Archive: "E", Count: 7000, DropOut: true},
	}
	got := Order(steps)
	want := []string{"E", "C", "B", "D", "A"}
	for i, name := range want {
		if got[i].Archive != name {
			t.Fatalf("Order[%d] = %s, want %s (full: %v)", i, got[i].Archive, name, names(got))
		}
	}
	// Original slice untouched.
	if steps[0].Archive != "A" {
		t.Error("Order mutated its input")
	}
}

func TestOrderTieBreak(t *testing.T) {
	steps := []Step{
		{Archive: "Z", Count: 5},
		{Archive: "A", Count: 5},
	}
	got := Order(steps)
	if got[0].Archive != "A" || got[1].Archive != "Z" {
		t.Errorf("tie break not by name: %v", names(got))
	}
}

func names(steps []Step) []string {
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = s.Archive
	}
	return out
}

func TestMarshalRoundTrip(t *testing.T) {
	p := samplePlan()
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.QueryID != p.QueryID || got.Threshold != p.Threshold {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.Area.RA != p.Area.RA || got.Area.Dec != p.Area.Dec ||
		got.Area.RadiusArcsec != p.Area.RadiusArcsec || len(got.Area.Vertices) != len(p.Area.Vertices) {
		t.Errorf("area = %+v", got.Area)
	}
	if len(got.Steps) != len(p.Steps) {
		t.Fatalf("steps = %d", len(got.Steps))
	}
	for i := range p.Steps {
		a, b := p.Steps[i], got.Steps[i]
		if a.Archive != b.Archive || a.LocalWhere != b.LocalWhere ||
			a.SigmaArcsec != b.SigmaArcsec || a.Count != b.Count || a.DropOut != b.DropOut {
			t.Errorf("step %d: %+v vs %+v", i, a, b)
		}
		if len(a.Columns) != len(b.Columns) {
			t.Errorf("step %d columns: %v vs %v", i, a.Columns, b.Columns)
		}
		if len(a.CrossWhere) != len(b.CrossWhere) {
			t.Errorf("step %d crossWhere: %v vs %v", i, a.CrossWhere, b.CrossWhere)
		}
	}
	if got.ChunkRows != p.ChunkRows {
		t.Errorf("chunkRows = %d", got.ChunkRows)
	}
	if len(got.SelectList) != 3 {
		t.Errorf("selectList = %v", got.SelectList)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("<oops")); err == nil {
		t.Error("expected error")
	}
}

func TestString(t *testing.T) {
	p := samplePlan()
	p.Steps[0].DropOut = false
	s := p.String()
	if !strings.Contains(s, "SDSS(count=5000)") || !strings.Contains(s, "->") {
		t.Errorf("String = %q", s)
	}
	p.Steps[0].DropOut = true
	if !strings.Contains(p.String(), "dropout") {
		t.Errorf("String = %q", p.String())
	}
}
