package htm

import (
	"math"
	"math/rand"
	"testing"

	"skyquery/internal/sphere"
)

func randUnit(rng *rand.Rand) sphere.Vec {
	for {
		x := 2*rng.Float64() - 1
		y := 2*rng.Float64() - 1
		s := x*x + y*y
		if s >= 1 {
			continue
		}
		f := 2 * math.Sqrt(1-s)
		return sphere.Vec{X: x * f, Y: y * f, Z: 1 - 2*s}
	}
}

func TestRootTrianglesCoverSphere(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := randUnit(rng)
		n := 0
		for r := 0; r < 8; r++ {
			if rootTriangle(r).Contains(v) {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("point %v in no root triangle", v)
		}
	}
}

func TestRootTrianglesOrientation(t *testing.T) {
	// Every root triangle must contain its own centroid (CCW orientation).
	for r := 0; r < 8; r++ {
		tri := rootTriangle(r)
		if !tri.Contains(tri.Center()) {
			t.Errorf("root %d does not contain its centroid; orientation wrong", r)
		}
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tri := rootTriangle(0)
	for i := 0; i < 2000; i++ {
		// Sample points inside the parent by rejection.
		v := randUnit(rng)
		if !tri.Contains(v) {
			continue
		}
		n := 0
		for k := 0; k < 4; k++ {
			if tri.child(k).Contains(v) {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("point %v in parent but no child", v)
		}
	}
}

func TestLookupInsideReturnedTrixel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, level := range []int{0, 1, 3, 8, 14, 20} {
		for i := 0; i < 300; i++ {
			v := randUnit(rng)
			id := Lookup(v, level)
			if got := id.Level(); got != level {
				t.Fatalf("Lookup level = %d, want %d", got, level)
			}
			if !id.Triangle().Contains(v) {
				t.Fatalf("level %d: %v not inside trixel %v", level, v, id)
			}
		}
	}
}

func TestLookupPrefixProperty(t *testing.T) {
	// The level-L lookup of a point must be a descendant of its level-l
	// lookup for l < L.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		v := randUnit(rng)
		deep := Lookup(v, 12)
		shallow := Lookup(v, 5)
		if deep>>uint(2*(12-5)) != shallow {
			t.Fatalf("prefix property violated: deep=%v shallow=%v", deep, shallow)
		}
	}
}

func TestIDLevelParentChild(t *testing.T) {
	id := ID(8)
	if id.Level() != 0 {
		t.Errorf("root level = %d", id.Level())
	}
	c := id.Child(2)
	if c != ID(8<<2|2) {
		t.Errorf("Child = %v", c)
	}
	if c.Level() != 1 {
		t.Errorf("child level = %d", c.Level())
	}
	if c.Parent() != id {
		t.Errorf("Parent = %v", c.Parent())
	}
	if id.Parent() != id {
		t.Errorf("root Parent should be itself")
	}
	if ID(0).Level() != -1 || ID(7).Level() != -1 {
		t.Error("IDs below 8 must be invalid")
	}
	if ID(16).Level() != -1 {
		t.Error("ID 16 has an odd bit length and must be invalid")
	}
	if !ID(15).Valid() || ID(3).Valid() {
		t.Error("Valid() wrong")
	}
}

func TestAtLevel(t *testing.T) {
	id := ID(9)
	r := id.AtLevel(2)
	if r.Lo != 9<<4 || r.Hi != 10<<4-1 {
		t.Errorf("AtLevel(2) = %+v", r)
	}
	if r.Count() != 16 {
		t.Errorf("Count = %d, want 16", r.Count())
	}
	same := id.AtLevel(0)
	if same.Lo != id || same.Hi != id {
		t.Errorf("AtLevel(same) = %+v", same)
	}
}

func TestIDString(t *testing.T) {
	if got := ID(8).String(); got != "S0" {
		t.Errorf("ID(8).String() = %q", got)
	}
	if got := ID(15).String(); got != "N3" {
		t.Errorf("ID(15).String() = %q", got)
	}
	if got := ID(8).Child(3).Child(1).String(); got != "S031" {
		t.Errorf("S0.3.1 String = %q", got)
	}
	if got := ID(5).String(); got == "" {
		t.Error("invalid ID should still render")
	}
}

func TestTriangleRoundTripThroughID(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		v := randUnit(rng)
		id := Lookup(v, 9)
		tri := id.Triangle()
		if !tri.Contains(v) {
			t.Fatalf("Triangle() of Lookup() does not contain the point")
		}
		// Looking up the triangle centroid at the same level must return
		// the same ID.
		if got := Lookup(tri.Center(), 9); got != id {
			t.Fatalf("Lookup(center) = %v, want %v", got, id)
		}
	}
}

func TestCoverEach(t *testing.T) {
	c := sphere.NewCap(185, -0.5, 0.25)
	cov := CoverCap(c, LevelForRadius(0.25), 14)
	if len(cov.Inner) == 0 || len(cov.Partial) == 0 {
		t.Fatalf("degenerate cover: %d inner, %d partial", len(cov.Inner), len(cov.Partial))
	}
	var rs []Range
	var tests []bool
	cov.Each(func(r Range, needTest bool) bool {
		rs = append(rs, r)
		tests = append(tests, needTest)
		return true
	})
	if len(rs) != len(cov.Inner)+len(cov.Partial) {
		t.Fatalf("Each yielded %d ranges, want %d", len(rs), len(cov.Inner)+len(cov.Partial))
	}
	// Canonical trixel order: ascending by Lo across the inner/partial
	// interleave, each range tagged with its classification.
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo <= rs[i-1].Lo {
			t.Fatalf("range %d = %v not in ascending trixel order after %v", i, rs[i], rs[i-1])
		}
	}
	seen := map[Range]bool{}
	for i, r := range rs {
		seen[r] = true
		want := false
		for _, p := range cov.Partial {
			if p == r {
				want = true
			}
		}
		if tests[i] != want {
			t.Fatalf("range %d = %v tagged needTest=%v, want %v", i, rs[i], tests[i], want)
		}
	}
	for _, r := range append(append([]Range(nil), cov.Inner...), cov.Partial...) {
		if !seen[r] {
			t.Fatalf("range %v missing from enumeration", r)
		}
	}
	// Early stop.
	n := 0
	cov.Each(func(Range, bool) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each continued after false: %d calls", n)
	}
}

func TestMergeRanges(t *testing.T) {
	in := []Range{{10, 12}, {13, 15}, {1, 2}, {11, 14}, {20, 22}}
	out := MergeRanges(in)
	want := []Range{{1, 2}, {10, 15}, {20, 22}}
	if len(out) != len(want) {
		t.Fatalf("MergeRanges = %+v, want %+v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MergeRanges[%d] = %+v, want %+v", i, out[i], want[i])
		}
	}
	if got := MergeRanges(nil); len(got) != 0 {
		t.Errorf("MergeRanges(nil) = %v", got)
	}
	single := MergeRanges([]Range{{5, 6}})
	if len(single) != 1 || single[0] != (Range{5, 6}) {
		t.Errorf("MergeRanges single = %v", single)
	}
}

// coverOracle checks a cover against brute-force point classification.
func coverOracle(t *testing.T, c sphere.Cap, cov Cover, nPoints int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	contains := func(rs []Range, id ID) bool {
		for _, r := range rs {
			if r.Contains(id) {
				return true
			}
		}
		return false
	}
	for i := 0; i < nPoints; i++ {
		// Mix uniform sphere points and points near the cap boundary,
		// where cover classification mistakes would hide.
		var v sphere.Vec
		if i%2 == 0 {
			v = randUnit(rng)
		} else {
			spread := math.Sin((c.Radius*2 + 0.001) * sphere.RadPerDeg * rng.Float64())
			v = c.Center.Add(randUnit(rng).Scale(spread)).Normalize()
		}
		id := Lookup(v, cov.Level)
		inInner := contains(cov.Inner, id)
		inPartial := contains(cov.Partial, id)
		if c.Contains(v) && !inInner && !inPartial {
			t.Fatalf("point %v inside cap missed by cover (id %v)", v, id)
		}
		if inInner && !c.Contains(v) {
			t.Fatalf("point %v in inner range but outside cap", v)
		}
	}
}

func TestCoverCapSmall(t *testing.T) {
	c := sphere.NewCap(185.0, -0.5, sphere.Arcsec(4.5))
	cov := CoverCap(c, LevelForRadius(c.Radius), 20)
	if len(cov.Inner)+len(cov.Partial) == 0 {
		t.Fatal("empty cover")
	}
	coverOracle(t, c, cov, 3000, 10)
}

func TestCoverCapMedium(t *testing.T) {
	c := sphere.NewCap(40, 30, 2.5)
	cov := CoverCap(c, LevelForRadius(c.Radius), 14)
	coverOracle(t, c, cov, 3000, 11)
}

func TestCoverCapLarge(t *testing.T) {
	c := sphere.NewCap(200, -45, 60)
	cov := CoverCap(c, 6, 10)
	if len(cov.Inner) == 0 {
		t.Error("a 60 degree cap must have inner trixels")
	}
	coverOracle(t, c, cov, 3000, 12)
}

func TestCoverCapOverHalfSphere(t *testing.T) {
	c := sphere.NewCap(0, 0, 120)
	cov := CoverCap(c, 5, 8)
	coverOracle(t, c, cov, 3000, 13)
}

func TestCoverCapPole(t *testing.T) {
	c := sphere.NewCap(123, 90, 1)
	cov := CoverCap(c, LevelForRadius(c.Radius), 14)
	coverOracle(t, c, cov, 3000, 14)
}

func TestCoverFullSphere(t *testing.T) {
	c := sphere.NewCap(0, 0, 180)
	cov := CoverCap(c, 3, 6)
	rs := cov.Ranges()
	var total uint64
	for _, r := range rs {
		total += r.Count()
	}
	// 8 * 4^6 leaf trixels in total.
	if want := uint64(8 * 1 << (2 * 6)); total != want {
		t.Errorf("full sphere cover has %d leaves, want %d", total, want)
	}
}

func TestCoverRangesMerged(t *testing.T) {
	c := sphere.NewCap(10, 10, 5)
	cov := CoverCap(c, 8, 12)
	rs := cov.Ranges()
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo <= rs[i-1].Hi+1 {
			t.Fatalf("ranges %d and %d not merged: %+v %+v", i-1, i, rs[i-1], rs[i])
		}
	}
}

func TestCoverInnerSubsetOfCap(t *testing.T) {
	// Sample the centers of some inner leaf trixels; all must be in the cap.
	c := sphere.NewCap(75, -20, 4)
	cov := CoverCap(c, 9, 12)
	for _, r := range cov.Inner {
		for _, id := range []ID{r.Lo, r.Hi, (r.Lo + r.Hi) / 2} {
			if id.Level() != cov.Level {
				continue // midpoint may not be a valid ID at level; skip
			}
			if !c.Contains(id.Triangle().Center()) {
				t.Fatalf("inner trixel %v center outside cap", id)
			}
		}
	}
}

func TestLevelForRadius(t *testing.T) {
	small := LevelForRadius(sphere.Arcsec(4.5))
	big := LevelForRadius(30)
	if small <= big {
		t.Errorf("smaller radius should give deeper level: %d vs %d", small, big)
	}
	if small > MaxLevel || big < 0 {
		t.Errorf("levels out of range: %d %d", small, big)
	}
	if got := LevelForRadius(0); got != MaxLevel {
		t.Errorf("LevelForRadius(0) = %d, want MaxLevel", got)
	}
	// The first level whose trixels are no larger than the radius, plus one.
	for l := 0; l <= MaxLevel; l++ {
		for _, r := range []float64{TrixelSize(l), math.Nextafter(TrixelSize(l), 0), math.Nextafter(TrixelSize(l), 100)} {
			want := 0
			for TrixelSize(want) > r && want < MaxLevel {
				want++
			}
			if want < MaxLevel {
				want++
			}
			if got := LevelForRadius(r); got != want {
				t.Errorf("LevelForRadius(%v) = %d, want %d", r, got, want)
			}
		}
	}
}

func TestDistToArc(t *testing.T) {
	a := sphere.FromRaDec(0, 0)
	b := sphere.FromRaDec(10, 0)
	// Point above the middle of the arc.
	p := sphere.FromRaDec(5, 3)
	if d := distToArc(p, a, b); !almostEq(d, 3, 1e-9) {
		t.Errorf("distToArc mid = %v, want 3", d)
	}
	// Point beyond an endpoint: distance to the endpoint.
	q := sphere.FromRaDec(-4, 0)
	if d := distToArc(q, a, b); !almostEq(d, 4, 1e-9) {
		t.Errorf("distToArc beyond end = %v, want 4", d)
	}
	// Pole of the great circle.
	pole := sphere.FromRaDec(0, 90)
	if d := distToArc(pole, a, b); !almostEq(d, 90, 1e-9) {
		t.Errorf("distToArc pole = %v, want 90", d)
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestTrixelSize(t *testing.T) {
	if TrixelSize(0) != 90 {
		t.Errorf("TrixelSize(0) = %v", TrixelSize(0))
	}
	if TrixelSize(1) != 45 {
		t.Errorf("TrixelSize(1) = %v", TrixelSize(1))
	}
	for l := -3; l <= 64; l++ {
		if got, want := TrixelSize(l), 90/math.Pow(2, float64(l)); got != want {
			t.Errorf("TrixelSize(%d) = %v, want %v", l, got, want)
		}
	}
}
