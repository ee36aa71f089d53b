// Package htm implements the Hierarchical Triangular Mesh, the spatial
// index the paper's SkyNodes use for range searches (§5.4): a quad tree on
// the sky whose nodes are spherical triangles ("trixels").
//
// The sphere is split into 8 root trixels (4 per hemisphere). Each trixel
// splits into 4 children by joining the normalized midpoints of its edges.
// A trixel at level L is named by a 64-bit ID: roots are 8..15 and each
// descent appends two bits, so the ID of a child is parent<<2 | k. IDs of
// all descendants of a trixel form one contiguous range, which is what
// makes the index useful: a sky region "covers" to a short list of ID
// ranges, and objects stored sorted by leaf-level ID are fetched with a few
// range scans.
//
// To retrieve objects in a circular range the paper's recipe is followed
// exactly: trixels entirely inside the circle contribute all their objects,
// trixels that merely intersect contribute candidates that are then tested
// individually.
package htm

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"skyquery/internal/sphere"
)

// ID names a trixel. The root trixels are 8..15; a child ID is
// parent<<2|k for k in 0..3. The zero ID is invalid.
type ID uint64

// MaxLevel is the deepest supported subdivision. At level 24 a trixel is
// about 0.01 arc seconds across, far below survey astrometric error, and
// the ID still fits comfortably in 52 bits.
const MaxLevel = 24

// LevelRange returns the inclusive range of all valid trixel IDs at a
// level: the full-sky ID universe a sharded archive's trixel ranges must
// tile. Root trixels are 8..15, and each level appends two bits.
func LevelRange(level int) Range {
	return Range{Lo: ID(8) << (2 * uint(level)), Hi: ID(16)<<(2*uint(level)) - 1}
}

// rootVertices are the 6 octahedron corners the standard HTM starts from.
var rootVertices = [6]sphere.Vec{
	{X: 0, Y: 0, Z: 1},  // v0: north pole
	{X: 1, Y: 0, Z: 0},  // v1
	{X: 0, Y: 1, Z: 0},  // v2
	{X: -1, Y: 0, Z: 0}, // v3
	{X: 0, Y: -1, Z: 0}, // v4
	{X: 0, Y: 0, Z: -1}, // v5: south pole
}

// roots lists the vertex indices of the 8 root trixels S0..S3, N0..N3 in
// ID order (8..15), matching the published HTM layout.
var roots = [8][3]int{
	{1, 5, 2}, // S0 = 8
	{2, 5, 3}, // S1 = 9
	{3, 5, 4}, // S2 = 10
	{4, 5, 1}, // S3 = 11
	{1, 0, 4}, // N0 = 12
	{4, 0, 3}, // N1 = 13
	{3, 0, 2}, // N2 = 14
	{2, 0, 1}, // N3 = 15
}

// Triangle is the geometry of a trixel: three unit vectors in
// counter-clockwise order seen from outside the sphere.
type Triangle [3]sphere.Vec

// rootTriangle returns the geometry of root trixel i (0..7).
func rootTriangle(i int) Triangle {
	r := roots[i]
	return Triangle{rootVertices[r[0]], rootVertices[r[1]], rootVertices[r[2]]}
}

// child returns the k-th child of t (k in 0..3).
func (t Triangle) child(k int) Triangle {
	w0 := t[1].Add(t[2]).Normalize()
	w1 := t[0].Add(t[2]).Normalize()
	w2 := t[0].Add(t[1]).Normalize()
	switch k {
	case 0:
		return Triangle{t[0], w2, w1}
	case 1:
		return Triangle{t[1], w0, w2}
	case 2:
		return Triangle{t[2], w1, w0}
	default:
		return Triangle{w0, w1, w2}
	}
}

// containsEps is the tolerance for point-in-triangle sign tests. Boundary
// points may fall in either adjacent trixel; what matters is that they fall
// in at least one, so the test is made slightly generous.
const containsEps = 1e-14

// Contains reports whether the unit vector v is inside the triangle.
func (t Triangle) Contains(v sphere.Vec) bool {
	return t[0].Cross(t[1]).Dot(v) >= -containsEps &&
		t[1].Cross(t[2]).Dot(v) >= -containsEps &&
		t[2].Cross(t[0]).Dot(v) >= -containsEps
}

// Center returns the normalized centroid of the triangle.
func (t Triangle) Center() sphere.Vec {
	return t[0].Add(t[1]).Add(t[2]).Normalize()
}

// Level returns the subdivision level of id: 0 for roots, increasing by
// one per descent. It returns -1 for invalid IDs.
func (id ID) Level() int {
	if id < 8 {
		return -1
	}
	n := 64 - bits.LeadingZeros64(uint64(id))
	if (n-4)%2 != 0 {
		return -1
	}
	return (n - 4) / 2
}

// Valid reports whether id names a trixel.
func (id ID) Valid() bool { return id.Level() >= 0 && id.Level() <= MaxLevel }

// Parent returns the parent trixel of id. Roots return themselves.
func (id ID) Parent() ID {
	if id.Level() <= 0 {
		return id
	}
	return id >> 2
}

// Child returns the k-th child (0..3) of id.
func (id ID) Child(k int) ID { return id<<2 | ID(k&3) }

// AtLevel returns the ID range (inclusive) of all descendants of id at the
// given deeper level. If level equals id's level the range is {id, id}.
func (id ID) AtLevel(level int) Range {
	shift := uint(2 * (level - id.Level()))
	return Range{Lo: id << shift, Hi: (id+1)<<shift - 1}
}

// Triangle returns the geometry of the trixel named by id.
func (id ID) Triangle() Triangle {
	level := id.Level()
	if level < 0 {
		return Triangle{}
	}
	// Extract the path: top 4 bits are 8+root, then 2 bits per level.
	t := rootTriangle(int(id>>(2*uint(level))) - 8)
	for i := level - 1; i >= 0; i-- {
		k := int(id>>(2*uint(i))) & 3
		t = t.child(k)
	}
	return t
}

// String implements fmt.Stringer using the conventional N/S path notation.
func (id ID) String() string {
	level := id.Level()
	if level < 0 {
		return fmt.Sprintf("htm.ID(invalid %d)", uint64(id))
	}
	names := [8]string{"S0", "S1", "S2", "S3", "N0", "N1", "N2", "N3"}
	s := names[int(id>>(2*uint(level)))-8]
	for i := level - 1; i >= 0; i-- {
		s += fmt.Sprintf("%d", int(id>>(2*uint(i)))&3)
	}
	return s
}

// Lookup returns the ID of the trixel at the given level containing the
// unit vector v.
func Lookup(v sphere.Vec, level int) ID {
	if level < 0 {
		level = 0
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	ri := -1
	for i := 0; i < 8; i++ {
		if rootTriangle(i).Contains(v) {
			ri = i
			break
		}
	}
	if ri < 0 {
		// Cannot happen for a genuine unit vector, but be safe for
		// degenerate input.
		ri = 0
	}
	id := ID(8 + ri)
	t := rootTriangle(ri)
	for l := 0; l < level; l++ {
		found := false
		for k := 0; k < 4; k++ {
			c := t.child(k)
			if c.Contains(v) {
				id = id.Child(k)
				t = c
				found = true
				break
			}
		}
		if !found {
			// Numerical corner case on a shared edge: fall into the
			// middle child, which borders all others.
			id = id.Child(3)
			t = t.child(3)
		}
	}
	return id
}

// Range is an inclusive range of trixel IDs at a common level.
type Range struct {
	Lo, Hi ID
}

// Contains reports whether id falls within the range.
func (r Range) Contains(id ID) bool { return id >= r.Lo && id <= r.Hi }

// Count returns the number of IDs in the range.
func (r Range) Count() uint64 { return uint64(r.Hi-r.Lo) + 1 }

// Cover is the result of covering a region: Inner ranges are entirely
// inside the region (objects there need no further test), Partial ranges
// merely intersect it (objects there must be tested individually). All
// ranges are expressed at leaf Level.
type Cover struct {
	Level   int
	Inner   []Range
	Partial []Range
}

// Each enumerates the cover's ranges in canonical trixel order — inner
// and partial ranges interleaved by ascending ID, each tagged with
// whether its objects still need an individual containment test — until
// fn returns false. It is the block-aligned enumeration protocol behind
// the storage layer's spatial searches: a consumer drains each contiguous
// ID range as one index scan instead of re-deriving the inner/partial
// split. The global ascending order is load-bearing for the sharded
// federation: a shard holding trixels [lo,hi] emits exactly the slice of
// this enumeration that falls in its range, so concatenating shard
// outputs in range order reproduces the single-node order at any shard
// count.
func (c Cover) Each(fn func(r Range, needTest bool) bool) {
	i, p := 0, 0
	for i < len(c.Inner) || p < len(c.Partial) {
		takeInner := p >= len(c.Partial) ||
			(i < len(c.Inner) && c.Inner[i].Lo <= c.Partial[p].Lo)
		if takeInner {
			if !fn(c.Inner[i], false) {
				return
			}
			i++
		} else {
			if !fn(c.Partial[p], true) {
				return
			}
			p++
		}
	}
}

// Ranges returns the union of inner and partial ranges, merged and sorted.
// This is the set of index scans needed to enumerate all candidates.
func (c Cover) Ranges() []Range {
	all := make([]Range, 0, len(c.Inner)+len(c.Partial))
	all = append(all, c.Inner...)
	all = append(all, c.Partial...)
	return MergeRanges(all)
}

// MergeRanges sorts ranges and merges overlapping or adjacent ones.
func MergeRanges(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// CoverCap computes the trixels covering a spherical cap, descending at
// most to subdivideLevel and reporting ranges at leafLevel (the level at
// which objects are indexed). subdivideLevel must be <= leafLevel.
//
// The classification follows the paper: a trixel whose vertices all lie in
// the cap is inner; a trixel that intersects the cap boundary is split
// until subdivideLevel and then reported as partial; disjoint trixels are
// dropped.
//
// A cross-match searches a cap of about an arc second per tuple, so almost
// every trixel the walk meets is one of a partial parent's disjoint
// children, and proving those disjoint is the cost. For caps under 90° the
// walk first tries a separating-plane test: it drops a trixel without
// classifying it when the cap lies strictly beyond the great circle of one
// of its edges (see beyond). Per trixel the test needs no trigonometry and
// no normalization, and the shared edges of a parent's four children are
// tested once per parent. It only ever skips classify for a trixel that
// classify would call disjoint, with margins that cover classify's own
// rounding, so it never changes a classification: the cover is the one a
// plain classify-every-trixel walk reports.
func CoverCap(c sphere.Cap, subdivideLevel, leafLevel int) Cover {
	if leafLevel > MaxLevel {
		leafLevel = MaxLevel
	}
	if subdivideLevel > leafLevel {
		subdivideLevel = leafLevel
	}
	if subdivideLevel < 0 {
		subdivideLevel = 0
	}
	w := coverWalk{c: c, sub: subdivideLevel, leaf: leafLevel, s2: planeThreshold(c), cov: Cover{Level: leafLevel}}
	for i := 0; i < 8; i++ {
		t := rootTriangle(i)
		if w.beyond(t[0].Cross(t[1])) >= 0 && w.beyond(t[1].Cross(t[2])) >= 0 &&
			w.beyond(t[2].Cross(t[0])) >= 0 {
			w.visit(ID(8+i), 0, t)
		}
	}
	w.cov.Inner = MergeRanges(w.cov.Inner)
	w.cov.Partial = MergeRanges(w.cov.Partial)
	return w.cov
}

// Margins of the separating-plane test. With s the cap's sine threshold
// and n an edge normal, the test drops a trixel only when the cap centre p
// has n·p < -(planeSlack + s·|n|). Each margin covers one of classify's
// float64 roundings, so a dropped trixel is one classify calls disjoint:
//   - planeSlack (absolute, on n·p) exceeds Contains' containsEps, so the
//     centre fails the same edge's sign test; it also covers the rounding
//     of a×b, which leaves the edge's own vertices up to ~3e-16 off the
//     plane, and the projections distToArc makes onto the other edges.
//   - cosSlack (on sin²r) covers the vertex test p·v >= cos r. Near 1 a
//     dot product resolves angles only to ~1e-15/sin r, so a vertex a hair
//     outside a small cap can test inside. With the slack, a dropped
//     trixel's vertices all lie at an angle from p whose cosine is at
//     least 2e-15 below cos r.
//   - angleSlack (on s) covers the rounding of n·p, of distToArc's
//     separations and of the degree conversion.
const (
	planeSlack = 1e-13
	cosSlack   = 4e-15
	angleSlack = 1e-14
)

// planeThreshold returns the squared sine threshold of the separating-
// plane test for the cap, or +Inf (test off) for caps of 90° or more.
func planeThreshold(c sphere.Cap) float64 {
	if !(c.Radius < 90) {
		return math.Inf(1)
	}
	sin := math.Sin(c.Radius * sphere.RadPerDeg)
	s := math.Sqrt(sin*sin+cosSlack) + angleSlack
	return s * s
}

// Enclosing returns the finest trixel, at maxLevel or above, that wholly
// contains the cap. It descends from the root and steps into a child only
// while the cap lies strictly on the inner side of all three of the
// child's edges, by the margins of CoverCap's separating-plane test. Every
// point within rounding of the cap therefore lies in the trixel's
// interior: Lookup files it under the trixel at every deeper level, and
// every range CoverCap reports for the cap lies in the trixel's descendant
// range. ok is false for caps of 90° or more and for caps no root trixel
// contains (a cap across a root edge).
//
// It costs three to five cross products per level, against CoverCap's
// walk of every trixel the cap touches, for callers that only need to know
// which part of the sky a small cap can reach.
func Enclosing(c sphere.Cap, maxLevel int) (id ID, ok bool) {
	w := coverWalk{c: c, s2: planeThreshold(c)}
	if math.IsInf(w.s2, 1) {
		return 0, false
	}
	for i := 0; i < 8; i++ {
		t := rootTriangle(i)
		if !w.inside(t[0], t[1]) || !w.inside(t[1], t[2]) || !w.inside(t[2], t[0]) {
			continue
		}
		id := ID(8 + i)
		for level := 0; level < maxLevel && level < MaxLevel; level++ {
			// The children and their inner edges as children() builds
			// them; an inner edge is shared with the middle child, whose
			// own normal is the exact negation.
			w0 := t[1].Add(t[2]).Normalize()
			w1 := t[0].Add(t[2]).Normalize()
			w2 := t[0].Add(t[1]).Normalize()
			s01 := w.beyond(w0.Cross(w1))
			s12 := w.beyond(w1.Cross(w2))
			s20 := w.beyond(w2.Cross(w0))
			switch {
			case s12 < 0 && w.inside(t[0], w2) && w.inside(w1, t[0]):
				id, t = id.Child(0), Triangle{t[0], w2, w1}
			case s20 < 0 && w.inside(t[1], w0) && w.inside(w2, t[1]):
				id, t = id.Child(1), Triangle{t[1], w0, w2}
			case s01 < 0 && w.inside(t[2], w1) && w.inside(w0, t[2]):
				id, t = id.Child(2), Triangle{t[2], w1, w0}
			case s01 > 0 && s12 > 0 && s20 > 0:
				id, t = id.Child(3), Triangle{w0, w1, w2}
			default:
				return id, true
			}
		}
		return id, true
	}
	return 0, false
}

// coverWalk is one CoverCap call's recursion state.
type coverWalk struct {
	c         sphere.Cap
	s2        float64 // squared sine threshold; +Inf disables the plane test
	sub, leaf int
	cov       Cover
}

// beyond reports on which side of the plane with (unnormalized) normal n
// the whole cap lies strictly: -1 beyond the negative side, +1 beyond the
// positive side, 0 if the test cannot tell. A trixel whose vertices run
// counter-clockwise lies on the positive side of each edge normal a×b, so
// -1 for one of them proves the trixel disjoint from the cap.
func (w *coverWalk) beyond(n sphere.Vec) int {
	d := n.Dot(w.c.Center)
	e := math.Abs(d) - planeSlack
	if e <= 0 || e*e <= w.s2*n.Dot(n) {
		return 0
	}
	if d < 0 {
		return -1
	}
	return 1
}

// inside reports whether the whole cap lies strictly on the inner side of
// the edge from a to b of a counter-clockwise trixel.
func (w *coverWalk) inside(a, b sphere.Vec) bool { return w.beyond(a.Cross(b)) > 0 }

func (w *coverWalk) visit(id ID, level int, t Triangle) {
	switch classify(t, w.c) {
	case disjoint:
		return
	case inside:
		w.cov.Inner = append(w.cov.Inner, id.AtLevel(w.leaf))
	case partial:
		if level >= w.sub {
			w.cov.Partial = append(w.cov.Partial, id.AtLevel(w.leaf))
			return
		}
		w.children(id, level, t)
	}
}

// children visits the four children of a partial trixel, building them as
// Triangle.child does from midpoints computed once. A child's outer edges
// lie on great circles its ancestors were already tested against, so only
// the three inner edges are tested: each corner child owns one of them,
// reversed, and the middle child owns all three.
func (w *coverWalk) children(id ID, level int, t Triangle) {
	w0 := t[1].Add(t[2]).Normalize()
	w1 := t[0].Add(t[2]).Normalize()
	w2 := t[0].Add(t[1]).Normalize()
	// b×a is exactly -(a×b) in IEEE arithmetic, so beyond(w1×w2) > 0 is
	// the test child 0 would make on its edge w2×w1, and so on.
	s01 := w.beyond(w0.Cross(w1))
	s12 := w.beyond(w1.Cross(w2))
	s20 := w.beyond(w2.Cross(w0))
	if s12 <= 0 {
		w.visit(id.Child(0), level+1, Triangle{t[0], w2, w1})
	}
	if s20 <= 0 {
		w.visit(id.Child(1), level+1, Triangle{t[1], w0, w2})
	}
	if s01 <= 0 {
		w.visit(id.Child(2), level+1, Triangle{t[2], w1, w0})
	}
	if s01 >= 0 && s12 >= 0 && s20 >= 0 {
		w.visit(id.Child(3), level+1, Triangle{w0, w1, w2})
	}
}

type classification int

const (
	disjoint classification = iota
	partial
	inside
)

// classify determines the relation of a trixel to a cap.
func classify(t Triangle, c sphere.Cap) classification {
	in := 0
	for _, v := range t {
		if c.Contains(v) {
			in++
		}
	}
	if in == 3 {
		if c.Radius <= 90 {
			// A cap of radius <= 90° is geodesically convex, so a
			// triangle with all vertices inside lies entirely inside.
			return inside
		}
		// Larger caps are not convex; the triangle may poke out the far
		// side. Treat conservatively as partial: candidates are
		// re-tested individually anyway.
		if !capBoundaryNearTriangle(t, c) {
			return inside
		}
		return partial
	}
	if in > 0 {
		return partial
	}
	// No vertex inside. The cap may still poke through an edge or sit
	// entirely within the triangle.
	if t.Contains(c.Center) {
		return partial
	}
	if capBoundaryNearTriangle(t, c) {
		return partial
	}
	return disjoint
}

// capBoundaryNearTriangle reports whether the cap boundary circle comes
// within the triangle's edges, i.e. whether the angular distance from the
// cap center to any edge segment is at most the cap radius.
func capBoundaryNearTriangle(t Triangle, c sphere.Cap) bool {
	for i := 0; i < 3; i++ {
		a, b := t[i], t[(i+1)%3]
		if distToArc(c.Center, a, b) <= c.Radius {
			return true
		}
	}
	return false
}

// distToArc returns the angular distance in degrees from the unit vector p
// to the geodesic arc segment from a to b.
func distToArc(p, a, b sphere.Vec) float64 {
	n := a.Cross(b)
	if n.Norm() == 0 {
		// Degenerate arc.
		return p.Sep(a)
	}
	n = n.Normalize()
	// Closest point on the full great circle.
	cp := p.Sub(n.Scale(n.Dot(p)))
	if cp.Norm() < 1e-15 {
		// p is at the circle's pole: equidistant from the whole circle.
		return 90
	}
	cp = cp.Normalize()
	// Is cp within the segment? It is iff it lies on the arc side of both
	// endpoints: (a × cp)·n >= 0 and (cp × b)·n >= 0.
	if a.Cross(cp).Dot(n) >= 0 && cp.Cross(b).Dot(n) >= 0 {
		return p.Sep(cp)
	}
	return math.Min(p.Sep(a), p.Sep(b))
}

// TrixelSize returns the approximate angular side length in degrees of a
// trixel at the given level (the root edge is 90° and each level halves it).
func TrixelSize(level int) float64 {
	return math.Ldexp(90, -level)
}

// LevelForRadius returns a subdivision level whose trixels are commensurate
// with a search radius: fine enough that partial trixels do not dominate,
// coarse enough that the cover stays short.
func LevelForRadius(radiusDeg float64) int {
	// Halving is exact, so size stays equal to TrixelSize(level).
	level, size := 0, TrixelSize(0)
	for size > radiusDeg && level < MaxLevel {
		level++
		size /= 2
	}
	// One extra level tightens the cover boundary considerably.
	if level < MaxLevel {
		level++
	}
	return level
}
