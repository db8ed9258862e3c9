package path

import (
	"strings"
	"testing"
)

func TestDirString(t *testing.T) {
	cases := map[Dir]string{LeftD: "L", RightD: "R", DownD: "D", Dir(9): "Dir(9)"}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Dir(%d).String() = %q, want %q", d, got, want)
		}
	}
}

func TestSegString(t *testing.T) {
	cases := []struct {
		seg  Seg
		want string
	}{
		{Exact(LeftD, 1), "L1"},
		{Exact(LeftD, 3), "L3"},
		{Plus(RightD), "R+"},
		{AtLeast(DownD, 2), "D2+"},
		{Plus(DownD), "D+"},
	}
	for _, c := range cases {
		if got := c.seg.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.seg, got, c.want)
		}
	}
}

func TestPathStringAndSame(t *testing.T) {
	if got := Same().String(); got != "S" {
		t.Errorf("Same().String() = %q", got)
	}
	if got := SamePossible().String(); got != "S?" {
		t.Errorf("SamePossible().String() = %q", got)
	}
	p := New(Exact(LeftD, 1), Plus(LeftD), Exact(LeftD, 2))
	if got := p.String(); got != "L4+" {
		t.Errorf("canon coalescing: got %q, want L4+", got)
	}
	q := NewPossible(Exact(RightD, 1), Plus(DownD))
	if got := q.String(); got != "R1D+?" {
		t.Errorf("got %q, want R1D+?", got)
	}
	// Both spellings are slices of the one rendered at intern time.
	for _, r := range []Path{p, q, q.AsDefinite()} {
		if n := testing.AllocsPerRun(100, func() { _ = r.String() }); n != 0 {
			t.Errorf("%s.String() made %v allocations, want 0", r, n)
		}
	}
}

func TestCanonDropsEmptySegments(t *testing.T) {
	p := New(Exact(LeftD, 0), Exact(RightD, 1))
	if got := p.String(); got != "R1" {
		t.Errorf("got %q, want R1", got)
	}
	if !New().IsSame() {
		t.Error("New() with no segs should be S")
	}
}

func TestExtend(t *testing.T) {
	cases := []struct {
		start string
		d     Dir
		want  string
	}{
		{"S", RightD, "R1"},
		{"R1", LeftD, "R1L1"},
		{"L2", LeftD, "L3"},
		{"L+", LeftD, "L2+"},
		{"D+", RightD, "D+R1"},
		{"R1D+?", LeftD, "R1D+L1?"},
	}
	for _, c := range cases {
		got := MustParse(c.start).Extend(c.d).String()
		if got != c.want {
			t.Errorf("Extend(%s, %s) = %q, want %q", c.start, c.d, got, c.want)
		}
	}
}

func TestConcat(t *testing.T) {
	p := MustParse("L1").Concat(MustParse("L+"))
	if got := p.String(); got != "L2+" {
		t.Errorf("L1·L+ = %q, want L2+", got)
	}
	q := MustParse("L1").Concat(MustParse("R1?"))
	if got := q.String(); got != "L1R1?" {
		t.Errorf("definite·possible = %q, want L1R1?", got)
	}
}

// TestResiduePaper checks the residue rules against the paper's Figure 2.
func TestResiduePaper(t *testing.T) {
	cases := []struct {
		in   string
		f    Dir
		want []string // sorted expected strings; nil means no paths
	}{
		// Fig 2(b): a→c = R1D+, d := a.right ⇒ d→c = D+ (definite).
		{"R1D+", RightD, []string{"D+"}},
		// Fig 2(c): d→c = D+, e := d.left ⇒ e→c ∈ {S?, D+?}.
		{"D+", LeftD, []string{"S?", "D+?"}},
		// Opposite concrete direction: no path.
		{"R1D+", LeftD, nil},
		{"R2", RightD, []string{"R1"}},
		{"L1", LeftD, []string{"S"}},
		{"L+", LeftD, []string{"S?", "L+?"}},
		{"L2+", LeftD, []string{"L+"}},
		{"L1R1", LeftD, []string{"R1"}},
		{"D1", LeftD, []string{"S?"}},
		{"D3", RightD, []string{"D2?"}},
		{"D2+", LeftD, []string{"D+?"}},
		// Possible inputs stay possible.
		{"L1?", LeftD, []string{"S?"}},
	}
	for _, c := range cases {
		got := MustParse(c.in).Residue(c.f)
		var gotS []string
		for _, p := range got {
			gotS = append(gotS, p.String())
		}
		if strings.Join(gotS, " ") != strings.Join(c.want, " ") {
			t.Errorf("Residue(%s, %s) = %v, want %v", c.in, c.f, gotS, c.want)
		}
	}
}

func TestResidueOfSameIsNoPath(t *testing.T) {
	if got := Same().Residue(LeftD); len(got) != 0 {
		t.Errorf("Residue(S, L) = %v, want none (upward paths are not recorded)", got)
	}
}

func TestBoundedAndMinLen(t *testing.T) {
	p := MustParse("L1R2")
	if n := p.MinLen(); n != 3 {
		t.Errorf("MinLen = %d, want 3", n)
	}
	if max, ok := p.Bounded(); !ok || max != 3 {
		t.Errorf("Bounded = %d,%v, want 3,true", max, ok)
	}
	q := MustParse("L1D+")
	if _, ok := q.Bounded(); ok {
		t.Error("L1D+ should be unbounded")
	}
	if n := q.MinLen(); n != 2 {
		t.Errorf("MinLen(L1D+) = %d, want 2", n)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"S", "S?", "L1", "L+", "L2+", "R1D+?", "D+", "L1R1L1R1"}
	for _, src := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := p.String(); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
	}
	// Paper's caret spelling.
	p := MustParse("L^1L+L^2")
	if got := p.String(); got != "L4+" {
		t.Errorf("caret form: got %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"X1", "L", "L0", "?", "1L"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	a, b := MustParse("L1"), MustParse("L1?")
	if a.Compare(b) >= 0 {
		t.Error("definite should order before possible")
	}
	if b.Compare(a) <= 0 {
		t.Error("Compare should be antisymmetric")
	}
	if a.Compare(a) != 0 {
		t.Error("Compare should be reflexive-zero")
	}
	if Same().Compare(MustParse("L1")) >= 0 {
		t.Error("S orders before non-empty paths")
	}
}

func TestEqualAndEqualExpr(t *testing.T) {
	a, b := MustParse("L1D+"), MustParse("L1D+?")
	if !a.EqualExpr(b) {
		t.Error("EqualExpr should ignore flags")
	}
	if a.Equal(b) {
		t.Error("Equal should respect flags")
	}
	if !a.AsPossible().Equal(b) {
		t.Error("AsPossible should produce b")
	}
	if !b.AsDefinite().Equal(a) {
		t.Error("AsDefinite should produce a")
	}
}
