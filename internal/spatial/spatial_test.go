package spatial

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"seve/internal/geom"
)

func TestSegmentIndexWithin(t *testing.T) {
	segs := []geom.Segment{
		{A: geom.Vec{X: 0, Y: 0}, B: geom.Vec{X: 10, Y: 0}},
		{A: geom.Vec{X: 100, Y: 100}, B: geom.Vec{X: 110, Y: 100}},
		{A: geom.Vec{X: 5, Y: 5}, B: geom.Vec{X: 5, Y: 15}},
	}
	idx := NewSegmentIndex(segs, 30)
	got := idx.Within(geom.Vec{X: 5, Y: 2}, 4, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Within = %v, want [0 2]", got)
	}
	if n := idx.CountWithin(geom.Vec{X: 5, Y: 2}, 4); n != 2 {
		t.Fatalf("CountWithin = %d, want 2", n)
	}
	if !idx.AnyWithin(geom.Vec{X: 5, Y: 2}, 4) || idx.AnyWithin(geom.Vec{X: 50, Y: 50}, 4) {
		t.Fatal("AnyWithin disagrees with Within")
	}
	if idx.Len() != 3 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if idx.Segment(1).A.X != 100 {
		t.Fatalf("Segment(1) = %v", idx.Segment(1))
	}
}

// TestSegmentIndexMatchesBruteForce cross-checks the grid against a linear
// scan over random walls, including walls that span cell boundaries.
func TestSegmentIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var segs []geom.Segment
	for i := 0; i < 500; i++ {
		a := geom.Vec{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		dir := geom.Vec{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1}.Normalize()
		segs = append(segs, geom.Segment{A: a, B: a.Add(dir.Scale(10))})
	}
	idx := NewSegmentIndex(segs, 25)
	for trial := 0; trial < 50; trial++ {
		p := geom.Vec{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		r := rng.Float64() * 80
		got := idx.Within(p, r, nil)
		var want []int32
		for i, s := range segs {
			if s.DistTo(p) <= r {
				want = append(want, int32(i))
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d segments, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
		if n := idx.CountWithin(p, r); n != len(want) {
			t.Fatalf("trial %d: CountWithin = %d, want %d", trial, n, len(want))
		}
	}
}

// seenSetWithin is the grid walk SegmentIndex.Within replaced: cells
// x-major, deduplicated through a per-query seen-set, each segment
// decided at its first visit by math.Hypot distance.
func seenSetWithin(idx *SegmentIndex, p geom.Vec, r float64) []int32 {
	k0 := idx.key(geom.Vec{X: p.X - r, Y: p.Y - r})
	k1 := idx.key(geom.Vec{X: p.X + r, Y: p.Y + r})
	seen := map[int32]bool{}
	var out []int32
	for x := k0.x; x <= k1.x; x++ {
		for y := k0.y; y <= k1.y; y++ {
			for _, i := range idx.cells[cellKey{x, y}] {
				if seen[i] {
					continue
				}
				seen[i] = true
				if idx.segs[i].DistTo(p) <= r {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

// checkQuery compares all three queries at (p, r) against a brute-force
// DistTo scan, and Within's order against the seen-set walk.
func checkQuery(t *testing.T, idx *SegmentIndex, p geom.Vec, r float64) {
	t.Helper()
	var want []int32
	for i := 0; i < idx.Len(); i++ {
		if idx.Segment(i).DistTo(p) <= r {
			want = append(want, int32(i))
		}
	}
	got := idx.Within(p, r, nil)
	// The seen-set walk's int32 cell keys overflow for astronomical
	// radii; the clamped query box does not.
	if old := seenSetWithin(idx, p, r); r <= 1e6 && !slices.Equal(got, old) {
		t.Fatalf("Within(%v, %v) = %v, seen-set walk gives %v", p, r, got, old)
	}
	sorted := slices.Clone(got)
	slices.Sort(sorted)
	if !slices.Equal(sorted, want) {
		t.Fatalf("Within(%v, %v) = %v, brute force gives %v", p, r, sorted, want)
	}
	if n := idx.CountWithin(p, r); n != len(want) {
		t.Fatalf("CountWithin(%v, %v) = %d, want %d", p, r, n, len(want))
	}
	if any := idx.AnyWithin(p, r); any != (len(want) > 0) {
		t.Fatalf("AnyWithin(%v, %v) = %v, want %v", p, r, any, len(want) > 0)
	}
}

// TestSegmentIndexExact drives random walls — short ones, ones spanning
// many cells, degenerate points — with random queries, and queries whose
// radius is exactly a wall's DistTo or one ulp either side of it: the
// ties the squared-distance band must settle the way DistTo does.
func TestSegmentIndexExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randVec := func() geom.Vec {
		return geom.Vec{X: rng.Float64()*400 - 200, Y: rng.Float64()*400 - 200}
	}
	var segs []geom.Segment
	for i := 0; i < 400; i++ {
		a := randVec()
		var length float64
		switch i % 4 {
		case 0:
			length = 0 // degenerate: a point
		case 1:
			length = 120 + rng.Float64()*200 // spans many cells
		default:
			length = rng.Float64() * 15
		}
		ang := rng.Float64() * 2 * math.Pi
		segs = append(segs, geom.Segment{A: a, B: a.Add(geom.Vec{X: math.Cos(ang), Y: math.Sin(ang)}.Scale(length))})
	}
	// Axis-aligned walls with an exact distance r to a grid point.
	segs = append(segs,
		geom.Segment{A: geom.Vec{X: -40, Y: 7}, B: geom.Vec{X: 40, Y: 7}},
		geom.Segment{A: geom.Vec{X: 3, Y: -50}, B: geom.Vec{X: 3, Y: 50}},
	)
	for _, cell := range []float64{7, 30} {
		idx := NewSegmentIndex(segs, cell)
		for trial := 0; trial < 300; trial++ {
			checkQuery(t, idx, randVec(), rng.Float64()*90)
		}
		for trial := 0; trial < 300; trial++ {
			p := randVec()
			d := idx.Segment(rng.Intn(idx.Len())).DistTo(p)
			for _, r := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))} {
				checkQuery(t, idx, p, r)
			}
		}
		for _, r := range []float64{0, 2, 7, 1e-120, 1e120, -1, math.NaN()} {
			checkQuery(t, idx, geom.Vec{X: 3, Y: 0}, r)
			checkQuery(t, idx, geom.Vec{X: 0, Y: 7}, r)
		}
	}
}

// TestSegmentIndexQueriesDoNotAllocate pins the hot-path contract: wall
// queries allocate nothing, Within included when dst has room.
func TestSegmentIndexQueriesDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	segs := make([]geom.Segment, 2000)
	for i := range segs {
		a := geom.Vec{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		segs[i] = geom.Segment{A: a, B: a.Add(geom.Vec{X: 10, Y: 4})}
	}
	idx := NewSegmentIndex(segs, 30)
	p := geom.Vec{X: 150, Y: 150}
	dst := make([]int32, 0, idx.Len())
	cases := map[string]func(){
		"AnyWithin":   func() { idx.AnyWithin(p, 1) },
		"CountWithin": func() { idx.CountWithin(p, 30) },
		"Within":      func() { dst = idx.Within(p, 30, dst[:0]) },
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per query, want 0", name, n)
		}
	}
	if len(dst) == 0 {
		t.Fatal("Within found no walls; the allocation check is vacuous")
	}
}

func TestNegativeCoordinates(t *testing.T) {
	// math.Floor-based keys must bucket negative coordinates correctly.
	segs := []geom.Segment{{A: geom.Vec{X: -10, Y: -1}, B: geom.Vec{X: -2, Y: -1}}}
	sidx := NewSegmentIndex(segs, 10)
	if n := sidx.CountWithin(geom.Vec{X: -6, Y: -2}, 2); n != 1 {
		t.Fatalf("negative-coordinate segment query = %d, want 1", n)
	}
}

func TestZeroCellSizeDefaults(t *testing.T) {
	// The constructor must not divide by zero when handed a bad cell size.
	si := NewSegmentIndex(nil, 0)
	if si.Len() != 0 {
		t.Fatal("empty index not empty")
	}
	si = NewSegmentIndex([]geom.Segment{{A: geom.Vec{X: 1, Y: 1}, B: geom.Vec{X: 2, Y: 1}}}, -3)
	if si.CountWithin(geom.Vec{X: 1, Y: 1}, 1) != 1 {
		t.Fatal("index with defaulted cell size lost a segment")
	}
}
