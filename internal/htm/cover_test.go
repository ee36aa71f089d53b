package htm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"skyquery/internal/sphere"
)

// coverCapRef is the plain cover walk: classify every trixel from the
// roots down. It is the oracle CoverCap must reproduce bit for bit.
func coverCapRef(c sphere.Cap, subdivideLevel, leafLevel int) Cover {
	if leafLevel > MaxLevel {
		leafLevel = MaxLevel
	}
	if subdivideLevel > leafLevel {
		subdivideLevel = leafLevel
	}
	if subdivideLevel < 0 {
		subdivideLevel = 0
	}
	cov := Cover{Level: leafLevel}
	for i := 0; i < 8; i++ {
		coverRecurseRef(ID(8+i), rootTriangle(i), c, subdivideLevel, leafLevel, &cov)
	}
	cov.Inner = MergeRanges(cov.Inner)
	cov.Partial = MergeRanges(cov.Partial)
	return cov
}

func coverRecurseRef(id ID, t Triangle, c sphere.Cap, subdivideLevel, leafLevel int, cov *Cover) {
	switch classify(t, c) {
	case disjoint:
		return
	case inside:
		cov.Inner = append(cov.Inner, id.AtLevel(leafLevel))
	case partial:
		if id.Level() >= subdivideLevel {
			cov.Partial = append(cov.Partial, id.AtLevel(leafLevel))
			return
		}
		for k := 0; k < 4; k++ {
			coverRecurseRef(id.Child(k), t.child(k), c, subdivideLevel, leafLevel, cov)
		}
	}
}

// coverCase is one cap of the differential corpus, covered the way the
// storage layer covers it.
type coverCase struct {
	family string
	c      sphere.Cap
	leaf   int
}

// offset moves v by an angle up to maxRad in a random direction.
func offset(rng *rand.Rand, v sphere.Vec, maxRad float64) sphere.Vec {
	return v.Add(randUnit(rng).Scale(maxRad * rng.Float64())).Normalize()
}

// leafTrixel returns the geometry of the level-leaf trixel around a
// uniform random point, or one in the 0.25° workload field.
func leafTrixel(rng *rand.Rand, leaf int) Triangle {
	v := randUnit(rng)
	if rng.Intn(2) == 0 {
		v = fieldPoint(rng)
	}
	return Lookup(v, leaf).Triangle()
}

func fieldPoint(rng *rand.Rand) sphere.Vec {
	return sphere.FromRaDec(185+0.25*(2*rng.Float64()-1), -0.5+0.25*(2*rng.Float64()-1))
}

// coverCorpus returns n seeded caps drawn from families that stress the
// cover walk's geometry: the workload field, centres hugging leaf edges
// and vertices, the poles and the RA wrap, and caps whose boundary passes
// within rounding distance of a trixel vertex beyond one of its edges,
// where a too-thin plane-test margin would drop a trixel classify keeps.
func coverCorpus(n int) []coverCase {
	rng := rand.New(rand.NewSource(7))
	out := make([]coverCase, 0, n)
	for len(out) < n {
		// Radii: mostly 0.01″–5″ (log-uniform), 10 % up to 60″, 5 % up to 1°.
		var r float64
		switch u := rng.Float64(); {
		case u < 0.05:
			r = 60 * rng.Float64()
		case u < 0.15:
			r = sphere.Arcsec(60 * rng.Float64())
		default:
			r = sphere.Arcsec(0.01 * math.Pow(500, rng.Float64()))
		}
		leaf := 14
		if sphere.ToArcsec(r) <= 36 && rng.Intn(2) == 0 {
			leaf = 20
		}
		var fam string
		var p sphere.Vec
		switch k := len(out) % 6; k {
		case 0:
			fam, p = "field", fieldPoint(rng)
		case 1:
			fam = "edge"
			t := leafTrixel(rng, 14)
			i := rng.Intn(3)
			a, b := t[i], t[(i+1)%3]
			p = offset(rng, a.Add(b.Sub(a).Scale(rng.Float64())).Normalize(), 1e-5)
		case 2:
			fam = "vertex"
			p = offset(rng, leafTrixel(rng, 14)[rng.Intn(3)], 1e-5)
		case 3:
			fam = "pole"
			dec := 90.0
			if rng.Intn(2) == 0 {
				dec = -90
			}
			p = sphere.FromRaDec(360*rng.Float64(), dec)
			if rng.Intn(2) == 0 {
				p = offset(rng, p, 1e-5)
			}
		case 4:
			fam = "ra-wrap"
			ra := 0.0
			if rng.Intn(2) == 0 {
				ra = 359.9999999
			}
			p = sphere.FromRaDec(ra, 180*rng.Float64()-90)
		case 5:
			// The cap sits beyond edge ab of a trixel, centred on the
			// edge's outward normal through a, with vertex a on its
			// boundary to within rounding: either a hair outside, in the
			// ~4e-16/sin r band where the vertex test p·a >= cos r may
			// still round to true, or a hair inside, by up to the
			// ~4e-16/|a×b| that rounding of a×b can leave a off the plane.
			fam = "tangent"
			t := leafTrixel(rng, leaf)
			i := rng.Intn(3)
			a, b := t[i], t[(i+1)%3]
			n := b.Cross(a)
			rr := r * sphere.RadPerDeg
			theta := rr + 4e-16/math.Sin(rr)*rng.Float64()
			if rng.Intn(2) == 0 {
				theta = rr - 4e-16/n.Norm()*rng.Float64()
			}
			m := n.Normalize()
			p = a.Scale(math.Cos(theta)).Add(m.Scale(math.Sin(theta))).Normalize()
		}
		out = append(out, coverCase{fam, sphere.CapAround(p, r), leaf})
	}
	return out
}

func checkCover(t *testing.T, family string, c sphere.Cap, leaf int) {
	t.Helper()
	sub := min(LevelForRadius(c.Radius), leaf)
	got, want := CoverCap(c, sub, leaf), coverCapRef(c, sub, leaf)
	if got.Level != want.Level || !slices.Equal(got.Inner, want.Inner) || !slices.Equal(got.Partial, want.Partial) {
		t.Fatalf("%s cap %v (center %v, radius %.17g°) at sub %d leaf %d:\ngot  inner %v partial %v\nwant inner %v partial %v",
			family, c, c.Center, c.Radius, sub, leaf, got.Inner, got.Partial, want.Inner, want.Partial)
	}
}

// TestCoverCapMatchesReference holds CoverCap to the plain classify-every-
// trixel walk, range for range, on 10⁵ seeded caps.
func TestCoverCapMatchesReference(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	for _, cc := range coverCorpus(n) {
		checkCover(t, cc.family, cc.c, cc.leaf)
	}
	// Large caps, where the plane test is off or rarely fires.
	for _, r := range []float64{1, 10, 45, 89.999, 90, 120, 179, 180} {
		checkCover(t, "large", sphere.NewCap(185, -0.5, r), 10)
		checkCover(t, "large", sphere.NewCap(0, 90, r), 10)
	}
}

// TestEnclosingHoldsCover checks Enclosing against CoverCap on 10⁵ seeded
// small caps — the cover corpus plus caps around the six root-trixel
// vertices — at the corpus leaf level: every range the cover reports, and
// the leaf trixel Lookup files a point of the cap under, lies in the
// enclosing trixel's descendant range at that level.
func TestEnclosingHoldsCover(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	cases := coverCorpus(n - n/10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n/10; i++ {
		p := offset(rng, rootVertices[i%len(rootVertices)], 1e-4)
		r := sphere.Arcsec(0.01 * math.Pow(500, rng.Float64()))
		cases = append(cases, coverCase{"root-vertex", sphere.CapAround(p, r), 14})
	}
	enclosed := map[string]int{}
	for _, cc := range cases {
		id, ok := Enclosing(cc.c, cc.leaf)
		if !ok {
			continue
		}
		enclosed[cc.family]++
		if l := id.Level(); l < 0 || l > cc.leaf {
			t.Fatalf("%s cap %v: enclosing trixel %v at level %d, leaf %d", cc.family, cc.c, id, l, cc.leaf)
		}
		span := id.AtLevel(cc.leaf)
		sub := min(LevelForRadius(cc.c.Radius), cc.leaf)
		for _, r := range CoverCap(cc.c, sub, cc.leaf).Ranges() {
			if r.Lo < span.Lo || r.Hi > span.Hi {
				t.Fatalf("%s cap %v (radius %.17g°): cover range %v escapes enclosing trixel %v (%v)",
					cc.family, cc.c, cc.c.Radius, r, id, span)
			}
		}
		p := offset(rng, cc.c.Center, cc.c.Radius*sphere.RadPerDeg)
		if cc.c.Contains(p) && !span.Contains(Lookup(p, cc.leaf)) {
			t.Fatalf("%s cap %v: point %v in the cap looks up to %v, outside enclosing trixel %v",
				cc.family, cc.c, p, Lookup(p, cc.leaf), id)
		}
	}
	// Field, edge, vertex and tangent caps lie inside one root trixel;
	// a helper that gave up on them would route every tuple everywhere.
	for _, fam := range []string{"field", "edge", "vertex", "tangent"} {
		if enclosed[fam] == 0 {
			t.Errorf("no %s cap was enclosed", fam)
		}
	}
	t.Logf("enclosed caps by family: %v of %d", enclosed, len(cases))
}

// TestEnclosingEdges pins the cases that must not descend: caps of 90° or
// more, a cap across a root edge, and a level bound of zero.
func TestEnclosingEdges(t *testing.T) {
	if _, ok := Enclosing(sphere.NewCap(185, -0.5, 90), 14); ok {
		t.Error("a 90° cap was enclosed")
	}
	if _, ok := Enclosing(sphere.NewCap(185, 0, sphere.Arcsec(1)), 14); ok {
		t.Error("a cap across the equator was enclosed")
	}
	c := sphere.NewCap(185, -0.5, sphere.Arcsec(1))
	if id, ok := Enclosing(c, 0); !ok || id.Level() != 0 || id != Lookup(c.Center, 0) {
		t.Errorf("Enclosing(level 0) = %v, %v; want root %v", id, ok, Lookup(c.Center, 0))
	}
	if id, ok := Enclosing(c, 14); !ok || id != Lookup(c.Center, id.Level()) || id.Level() < 10 {
		t.Errorf("Enclosing(level 14) = %v (level %d), %v; want a fine trixel holding the centre", id, id.Level(), ok)
	}
}

// FuzzCoverCap checks CoverCap against the reference walk on arbitrary
// caps and leaf levels.
func FuzzCoverCap(f *testing.F) {
	for _, cc := range coverCorpus(24) {
		ra, dec := cc.c.Center.RaDec()
		f.Add(ra, dec, sphere.ToArcsec(cc.c.Radius), uint8(cc.leaf))
	}
	f.Add(0.0, 90.0, 1.0, uint8(14))
	f.Add(359.9999999, -90.0, 5.0, uint8(20))
	f.Add(185.0, -0.5, 3600.0, uint8(14))
	f.Fuzz(func(t *testing.T, ra, dec, radiusArcsec float64, leaf uint8) {
		for _, x := range []float64{ra, dec, radiusArcsec} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
		}
		r := math.Min(math.Abs(radiusArcsec), 180*sphere.ArcsecPerDeg)
		checkCover(t, "fuzz", sphere.NewCap(ra, dec, sphere.Arcsec(r)), int(leaf)%(MaxLevel+1))
	})
}
