package skyquery

// The wire-protocol golden corpus: the same testdata/queries/*.sql as
// TestGoldenQueryCorpus, but submitted over the full SOAP web-service
// path (Client -> Portal -> nodes) with the binary columnar codec
// negotiated end to end — and again with the codec forced to XML. Both
// wires must reproduce the checked-in goldens bit for bit at every
// combination of chain parallelism and scan batch size, proving the
// columnar frames are a pure transport: no value, null, type, or
// ordering change anywhere in the result.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"skyquery/internal/eval"
)

func TestWireGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "queries", "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden queries found: %v", err)
	}
	sort.Strings(files)
	defer eval.SetBatchSize(eval.BatchSize())

	codecs := []struct {
		name  string
		codec Codec
	}{
		{"binary", CodecNegotiate},
		{"xml", CodecXML},
	}
	for _, cd := range codecs {
		batchSizes := []int{1, 3, eval.DefaultBatchSize}
		// ChunkRows 0 is the default (5000: every answer is one page).
		chunkRows := []int{0}
		if cd.codec == CodecXML {
			// The XML fallback exercises the same engine below the wire;
			// one batch size suffices to prove the negotiation path. At 7
			// rows per chunk every hop parks many chunks, so each step
			// runs page after page.
			batchSizes = []int{eval.DefaultBatchSize}
			chunkRows = []int{0, 7}
		}
		for _, par := range []int{1, 4} {
			for _, cr := range chunkRows {
				f := launch(t, Options{Bodies: 400, Parallelism: par, Codec: cd.codec, ChunkRows: cr})
				c := f.Client()
				for _, bs := range batchSizes {
					eval.SetBatchSize(bs)
					for _, file := range files {
						name := fmt.Sprintf("%s/%s/par=%d/chunk=%d/batch=%d", cd.name, filepath.Base(file), par, cr, bs)
						sql, err := os.ReadFile(file)
						if err != nil {
							t.Fatal(err)
						}
						want, err := os.ReadFile(strings.TrimSuffix(file, ".sql") + ".golden")
						if err != nil {
							t.Fatalf("%s: missing golden: %v", name, err)
						}
						res, err := c.Query(context.Background(), string(sql))
						if err != nil {
							t.Errorf("%s: query failed: %v", name, err)
							continue
						}
						if got := goldenEncode(res); got != string(want) {
							t.Errorf("%s: wire result diverges from golden\ngot:\n%s\nwant:\n%s", name, got, want)
						}
					}
				}
				f.Close()
			}
		}
	}
}

// TestWireBinaryActuallyNegotiated proves the binary matrix above is not
// silently falling back to XML: the same query moves materially fewer
// response bytes over a binary-negotiated federation than over one
// forced to XML.
func TestWireBinaryActuallyNegotiated(t *testing.T) {
	bytesOnWire := func(codec Codec) int64 {
		f := launch(t, Options{Bodies: 400, Codec: codec})
		defer f.Close()
		if _, err := f.Client().Query(context.Background(), testQuery); err != nil {
			t.Fatal(err)
		}
		return f.Transport.Stats().BytesReceived
	}
	bin := bytesOnWire(CodecNegotiate)
	xml := bytesOnWire(CodecXML)
	if bin >= xml {
		t.Errorf("binary wire moved %d response bytes, XML %d — negotiation is not happening", bin, xml)
	}
}
