package skyquery

// Differential chain-order suite: the three ordering regimes — the
// paper's pure count-probe rule (CountProbeOrder), the default
// cost-based order, and the cost-based order under an injected
// throughput skew — must produce bit-identical result sets at every
// combination of chain parallelism {1, 4} and scan batch size
// {1, 3, 1024}. Chain order changes raw row order, so rows are compared
// canonically sorted; the cells themselves must match bit-for-bit
// (goldenCell encodes floats at 12 significant digits, same as the
// golden corpus).
//
// The differential is proven non-vacuous: the portal's plan events are
// recorded, and each query must run under at least two distinct chain
// orders across the three regimes, or the test fails.

import (
	"context"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"skyquery/internal/dataset"
	"skyquery/internal/eval"
	"skyquery/internal/nettrace"
)

// chainOrderCrossQuery has a drop-out archive and a cross predicate, so
// a different chain order also moves the predicate to another step.
const chainOrderCrossQuery = `
	SELECT O.object_id, T.object_id
	FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
	WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T, !P) < 3.5
	AND O.type = 'GALAXY' AND (O.flux - T.flux) < 1000.0`

// chainOrderMandatoryQuery is a three-way mandatory match: every archive
// contributes columns and any of the six orders must agree.
const chainOrderMandatoryQuery = `
	SELECT O.object_id, T.object_id, P.object_id
	FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P
	WHERE AREA(185.0, -0.5, 900) AND XMATCH(O, T, P) < 3.5`

// canonicalEncode renders a result set with its rows sorted: the
// order-independent form the differential comparisons use.
func canonicalEncode(ds *dataset.DataSet) string {
	var hdr []string
	for _, c := range ds.Columns {
		hdr = append(hdr, c.Name+":"+c.Type.String())
	}
	lines := make([]string, 0, len(ds.Rows))
	for _, row := range ds.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = goldenCell(v)
		}
		lines = append(lines, strings.Join(cells, " | "))
	}
	sort.Strings(lines)
	return strings.Join(hdr, " | ") + "\n" + strings.Join(lines, "\n")
}

// endpointHostOf extracts the nettrace registry key from a node URL.
func endpointHostOf(t *testing.T, endpoint string) string {
	t.Helper()
	u, err := url.Parse(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

func TestChainOrderDifferential(t *testing.T) {
	defer eval.SetBatchSize(eval.BatchSize())
	t.Cleanup(nettrace.ResetThroughput)

	queries := []struct{ name, sql string }{
		{"dropout-cross", chainOrderCrossQuery},
		{"mandatory", chainOrderMandatoryQuery},
	}
	batchSizes := []int{1, 3, eval.DefaultBatchSize}

	modes := []struct {
		name string
		opts Options
		skew bool
	}{
		// The paper-faithful count-probe order runs first and is the
		// reference every other configuration must reproduce.
		{name: "count-probe", opts: Options{CountProbeOrder: true}},
		{name: "cost-based", opts: Options{}},
		{name: "cost-skew", opts: Options{}, skew: true},
	}

	ref := map[string]string{}
	// orders collects, per query, the chain orders the portal planned.
	var mu sync.Mutex
	current := ""
	orders := map[string]map[string]bool{}
	for _, q := range queries {
		orders[q.name] = map[string]bool{}
	}
	for _, par := range []int{1, 4} {
		for _, m := range modes {
			opts := m.opts
			opts.Bodies = 400
			opts.Parallelism = par
			opts.PortalEvents = func(kind, detail string) {
				if kind != "plan" {
					return
				}
				mu.Lock()
				orders[current][planOrder(detail)] = true
				mu.Unlock()
			}
			nettrace.ResetThroughput()
			f := launch(t, opts)
			if m.skew {
				// Make SDSS's path look vastly slower than the others
				// and FIRST's ~100x slower than TWOMASS's — measured over
				// enough bytes to clear the sampling floor and far
				// outside the noise band, so the cost model prices the
				// transfers by path speed rather than row counts. The
				// graded skew moves both queries off their count-probe
				// orders: SDSS jumps the drop-out query's chain, FIRST
				// overtakes TWOMASS in the mandatory one.
				nettrace.ResetThroughput()
				for name, u := range f.NodeURLs {
					host := endpointHostOf(t, u)
					switch name {
					case "SDSS":
						nettrace.RecordTransfer(host, 1<<20, 1000*time.Second)
					case "FIRST":
						nettrace.RecordTransfer(host, 1<<30, 100*time.Second)
					default:
						nettrace.RecordTransfer(host, 1<<30, time.Second)
					}
				}
			}
			for _, q := range queries {
				mu.Lock()
				current = q.name
				mu.Unlock()
				for _, bs := range batchSizes {
					eval.SetBatchSize(bs)
					res, err := f.Query(context.Background(), q.sql)
					if err != nil {
						t.Fatalf("mode %s par %d batch %d query %s: %v", m.name, par, bs, q.name, err)
					}
					if res.NumRows() == 0 {
						t.Fatalf("mode %s par %d batch %d query %s: no rows — differential is vacuous", m.name, par, bs, q.name)
					}
					got := canonicalEncode(res)
					if want, ok := ref[q.name]; !ok {
						ref[q.name] = got
					} else if got != want {
						t.Errorf("mode %s par %d batch %d query %s: canonical results diverge from the count-probe reference (%d rows vs %d)",
							m.name, par, bs, q.name, res.NumRows(), strings.Count(want, "\n"))
					}
				}
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, q := range queries {
		if len(orders[q.name]) < 2 {
			t.Errorf("query %s ran under chain orders %v across all modes — the differential is vacuous", q.name, orders[q.name])
		}
	}
}

// planOrder reduces a portal plan event ("A(count=..) -> B(..) -> ..")
// to its archive call order ("A->B->..").
func planOrder(detail string) string {
	steps := strings.Split(detail, " -> ")
	for i, s := range steps {
		steps[i], _, _ = strings.Cut(s, "(")
	}
	return strings.Join(steps, "->")
}
