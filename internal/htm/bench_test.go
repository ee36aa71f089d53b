package htm

import (
	"math/rand"
	"testing"

	"skyquery/internal/sphere"
)

// benchLeaf is the leaf level the storage layer indexes objects at.
const benchLeaf = 14

// workloadCaps returns n seeded caps shaped like a cross-match step's
// per-tuple searches: centres uniform in the 0.25° field around
// (185, -0.5) that the federation's surveys share, radii 0.5–1.6″.
func workloadCaps(n int) []sphere.Cap {
	rng := rand.New(rand.NewSource(1))
	caps := make([]sphere.Cap, n)
	for i := range caps {
		ra := 185 + 0.25*(2*rng.Float64()-1)
		dec := -0.5 + 0.25*(2*rng.Float64()-1)
		r := sphere.Arcsec(0.5 + 1.1*rng.Float64())
		caps[i] = sphere.NewCap(ra, dec, r)
	}
	return caps
}

// Sinks keep the compiler from discarding the measured calls.
var (
	coverSink  Cover
	lookupSink ID
)

// BenchmarkCoverCap measures one cross-match tuple's HTM cover, sized the
// way the storage layer sizes it.
func BenchmarkCoverCap(b *testing.B) {
	caps := workloadCaps(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := caps[i%len(caps)]
		coverSink = CoverCap(c, min(LevelForRadius(c.Radius), benchLeaf), benchLeaf)
	}
}

// BenchmarkLookup measures the leaf-trixel lookup ingest does per object,
// on the same centres.
func BenchmarkLookup(b *testing.B) {
	caps := workloadCaps(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookupSink = Lookup(caps[i%len(caps)].Center, benchLeaf)
	}
}

// BenchmarkEnclosing measures the portal's per-tuple shard routing: the
// finest trixel at the leaf level or above that holds the cap.
func BenchmarkEnclosing(b *testing.B) {
	caps := workloadCaps(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookupSink, _ = Enclosing(caps[i%len(caps)], benchLeaf)
	}
}
