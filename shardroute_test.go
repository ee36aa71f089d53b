package skyquery

// Per-tuple shard routing e2e. On a sharded archive the portal sends each
// partial tuple only to the shards its search cap can reach. A routing
// error that drops a shard holding a match shows only for tuples whose
// cap crosses a shard boundary, which the 400-body golden corpus barely
// has; these tests run at 2,500 bodies and up to 16 shards, where such
// tuples exist, and hold every answer to the unsharded federation's.
//
//   - TestShardRoutingBoundaryDifferential: the drop-out golden query and
//     the extend-only paper query at shards {4, 8, 16}, bit-identical
//     (floats at full precision) to the unsharded answer, with at least
//     one tuple routed to two shards.
//   - TestShardRoutingWork: on 4 shards, each extend step routes at most
//     1.2 tuples per incoming tuple (broadcast would route 4).

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"skyquery/internal/dataset"
)

// routeBodies is the field size at which caps across shard boundaries
// are common enough to catch a routing error.
const routeBodies = 2500

// extendPaperQuery is the paper's three-archive mandatory cross-match, as
// the benchmark harness runs it.
const extendPaperQuery = `SELECT O.object_id, T.object_id, P.object_id, O.flux, T.flux
FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T, P) < 3.5
AND O.type = 'GALAXY' AND (O.flux - T.flux) > 2`

// exactEncode renders a result set with every float at full precision.
func exactEncode(ds *dataset.DataSet) string {
	var sb strings.Builder
	for _, c := range ds.Columns {
		fmt.Fprintf(&sb, "%s:%s | ", c.Name, c.Type)
	}
	for _, row := range ds.Rows {
		sb.WriteString("\n")
		for _, v := range row {
			fmt.Fprintf(&sb, "%s:%s | ", v.Type(), v)
		}
	}
	return sb.String()
}

// stepRouting is one non-seed step's shard.scatter event: the tuples
// routed to each shard and the step's incoming tuples.
type stepRouting struct {
	archive  string
	routed   []int
	incoming int
}

var routedEvent = regexp.MustCompile(`^step (\S+) -> \d+ shard\(s\), tuples routed \[([0-9 ]*)\] of (\d+)$`)

// routingRecorder collects the shard.scatter events of non-seed steps.
type routingRecorder struct {
	mu    sync.Mutex
	steps []stepRouting
	bad   []string
}

func (r *routingRecorder) event(kind, detail string) {
	if kind != "shard.scatter" || !strings.HasPrefix(detail, "step ") {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !strings.Contains(detail, "routed") {
		return // a seed step
	}
	m := routedEvent.FindStringSubmatch(detail)
	if m == nil {
		r.bad = append(r.bad, detail)
		return
	}
	s := stepRouting{archive: m[1]}
	for _, f := range strings.Fields(m[2]) {
		n, _ := strconv.Atoi(f)
		s.routed = append(s.routed, n)
	}
	s.incoming, _ = strconv.Atoi(m[3])
	r.steps = append(r.steps, s)
}

func (r *routingRecorder) take(t *testing.T) []stepRouting {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bad) > 0 {
		t.Fatalf("unparsable shard.scatter events: %q", r.bad)
	}
	out := r.steps
	r.steps = nil
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func TestShardRoutingBoundaryDifferential(t *testing.T) {
	dropOut, err := os.ReadFile("testdata/queries/01_paper_example.sql")
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{"drop-out": string(dropOut), "extend": extendPaperQuery}
	want := map[string]string{}
	flat := launch(t, Options{Bodies: routeBodies})
	for name, sql := range queries {
		res, err := flat.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("unsharded %s: %v", name, err)
		}
		if res.NumRows() == 0 {
			t.Fatalf("unsharded %s query returned nothing", name)
		}
		want[name] = exactEncode(res)
	}
	flat.Close()

	for _, shards := range []int{4, 8, 16} {
		rec := &routingRecorder{}
		f := launch(t, Options{Bodies: routeBodies, Shards: shards, PortalEvents: rec.event})
		split := 0
		for name, sql := range queries {
			res, err := f.Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, name, err)
			}
			if got := exactEncode(res); got != want[name] {
				t.Errorf("shards=%d %s: %d rows, diverges from the unsharded %d-row answer",
					shards, name, res.NumRows(), strings.Count(want[name], "\n"))
			}
			steps := rec.take(t)
			if len(steps) == 0 {
				t.Fatalf("shards=%d %s: no routed step", shards, name)
			}
			for _, s := range steps {
				// More routed than incoming means some tuple went to two
				// or more shards.
				split += max(0, sum(s.routed)-s.incoming)
			}
		}
		if split == 0 {
			t.Errorf("shards=%d: no tuple was routed to two shards; the boundary case went unexercised", shards)
		}
		f.Close()
	}
}

func TestShardRoutingWork(t *testing.T) {
	const shards = 4
	rec := &routingRecorder{}
	f := launch(t, Options{Bodies: routeBodies, Shards: shards, PortalEvents: rec.event})
	if _, err := f.Query(context.Background(), extendPaperQuery); err != nil {
		t.Fatal(err)
	}
	steps := rec.take(t)
	if len(steps) != 2 {
		t.Fatalf("got %d routed steps, want the 2 extend steps of a three-archive chain: %+v", len(steps), steps)
	}
	for _, s := range steps {
		if len(s.routed) != shards {
			t.Errorf("%s: routed to %d shards, want every one of %d area-routed shards called", s.archive, len(s.routed), shards)
		}
		if s.incoming == 0 {
			t.Errorf("%s: no incoming tuples", s.archive)
			continue
		}
		ratio := float64(sum(s.routed)) / float64(s.incoming)
		t.Logf("%s: %d incoming tuples, routed %v (%.3f per tuple)", s.archive, s.incoming, s.routed, ratio)
		if ratio > 1.2 {
			t.Errorf("%s: %.3f routed tuples per incoming tuple, want <= 1.2 (broadcast is %d)", s.archive, ratio, shards)
		}
	}
}
