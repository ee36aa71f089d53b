package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "T0",
		Title:  "render test",
		Header: []string{"a", "metric", "v"},
	}
	tab.Add("x", 12, 3.14159)
	tab.Add("longer-cell", time.Millisecond*1500, "s")
	tab.Notes = append(tab.Notes, "a note")
	out := tab.String()
	for _, want := range []string{"== T0: render test ==", "longer-cell", "1.5s", "3.14", "note: a note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Columns must be aligned: header and separator share prefix width.
	lines := strings.Split(out, "\n")
	if len(lines[1]) == 0 || len(lines[2]) < len("a  metric") {
		t.Errorf("alignment looks wrong:\n%s", out)
	}
}

func TestAllListsEveryExperiment(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.Run == nil {
			t.Errorf("%s has no runner", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"F1", "F2", "F3", "C1", "C2", "C3", "C4", "C5", "C6", "C7"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

// TestF2ReproducesFigure runs the cheapest experiment end to end and
// asserts the figure's exact selection (the note machinery flags any
// deviation with "UNEXPECTED").
func TestF2ReproducesFigure(t *testing.T) {
	tab, err := F2XMatchSemantics()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one per clause)\n%s", len(tab.Rows), tab)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "UNEXPECTED") {
			t.Errorf("figure deviation: %s", n)
		}
	}
	if !strings.Contains(tab.Rows[0][1], "aO") || !strings.Contains(tab.Rows[1][1], "bO") {
		t.Errorf("selections wrong:\n%s", tab)
	}
}

// TestF1Architecture exercises the registration + query accounting.
func TestF1Architecture(t *testing.T) {
	if testing.Short() {
		t.Skip("federation experiment")
	}
	tab, err := F1Federation()
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]string{}
	for _, row := range tab.Rows {
		cells[row[1]] = row[2]
	}
	if cells["Metadata call-backs"] != "3" || cells["Information call-backs"] != "3" {
		t.Errorf("handshake accounting wrong:\n%s", tab)
	}
	if cells["cross matches"] == "0" {
		t.Errorf("no matches:\n%s", tab)
	}
}

// TestC1OptimizerWins asserts the headline optimizer claim end to end.
func TestC1OptimizerWins(t *testing.T) {
	if testing.Short() {
		t.Skip("federation experiment")
	}
	tab, err := C1PlanOrdering()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	bytes := func(row []string) string { return row[3] }
	opt := atoi(t, bytes(tab.Rows[0]))
	worst := atoi(t, bytes(tab.Rows[1]))
	if opt >= worst {
		t.Errorf("optimizer (%d B) did not beat worst order (%d B)\n%s", opt, worst, tab)
	}
	// Matches identical across orders (§5.4 symmetry).
	if tab.Rows[0][2] != tab.Rows[1][2] || tab.Rows[0][2] != tab.Rows[2][2] {
		t.Errorf("match counts differ across orders:\n%s", tab)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// TestC3HTMRange asserts §5.4's claim that an HTM range search returns
// exactly the rows a full scan finds. C3HTMRange itself fails unless the
// two counts agree; the pinned counts run the cover walk through
// SearchCapBatch from 10″ to 45°.
func TestC3HTMRange(t *testing.T) {
	if testing.Short() {
		t.Skip("200000-row scans")
	}
	tab, err := C3HTMRange()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "0", "0", "17", "1582", "29098"}
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d\n%s", len(tab.Rows), len(want), tab)
	}
	for i, row := range tab.Rows {
		if row[1] != want[i] {
			t.Errorf("radius %s: %s rows in range, want %s\n%s", row[0], row[1], want[i], tab)
		}
	}
}
