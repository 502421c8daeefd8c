package schema

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func validStar() *Star {
	return &Star{
		Name: "Retail",
		Fact: FactTable{Name: "Sales", Rows: 24_000_000, RowSize: 100},
		Dimensions: []Dimension{
			{Name: "Product", Levels: []Level{
				{Name: "division", Cardinality: 4},
				{Name: "line", Cardinality: 15},
				{Name: "family", Cardinality: 75},
				{Name: "group", Cardinality: 250},
				{Name: "class", Cardinality: 605},
				{Name: "code", Cardinality: 9000},
			}},
			{Name: "Customer", Levels: []Level{
				{Name: "retailer", Cardinality: 99},
				{Name: "store", Cardinality: 900},
			}},
			{Name: "Time", Levels: []Level{
				{Name: "year", Cardinality: 2},
				{Name: "quarter", Cardinality: 8},
				{Name: "month", Cardinality: 24},
			}},
			{Name: "Channel", Levels: []Level{
				{Name: "channel", Cardinality: 9},
			}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	s := validStar()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateEmptySchema(t *testing.T) {
	s := &Star{Fact: FactTable{Name: "f", Rows: 1, RowSize: 1}}
	if err := s.Validate(); !errors.Is(err, ErrEmptySchema) {
		t.Fatalf("Validate() = %v, want ErrEmptySchema", err)
	}
}

func TestValidateNoLevels(t *testing.T) {
	s := validStar()
	s.Dimensions[0].Levels = nil
	if err := s.Validate(); !errors.Is(err, ErrNoLevels) {
		t.Fatalf("Validate() = %v, want ErrNoLevels", err)
	}
}

func TestValidateBadCardinality(t *testing.T) {
	s := validStar()
	s.Dimensions[1].Levels[0].Cardinality = 0
	if err := s.Validate(); !errors.Is(err, ErrBadCardinality) {
		t.Fatalf("Validate() = %v, want ErrBadCardinality", err)
	}
}

func TestValidateNonMonotonic(t *testing.T) {
	s := validStar()
	s.Dimensions[0].Levels[1].Cardinality = 2 // below division's 4
	if err := s.Validate(); !errors.Is(err, ErrNonMonotonic) {
		t.Fatalf("Validate() = %v, want ErrNonMonotonic", err)
	}
}

func TestValidateBadRows(t *testing.T) {
	s := validStar()
	s.Fact.Rows = 0
	if err := s.Validate(); !errors.Is(err, ErrBadRows) {
		t.Fatalf("Validate() = %v, want ErrBadRows", err)
	}
}

func TestValidateBadRowSize(t *testing.T) {
	s := validStar()
	s.Fact.RowSize = -1
	if err := s.Validate(); !errors.Is(err, ErrBadRowSize) {
		t.Fatalf("Validate() = %v, want ErrBadRowSize", err)
	}
}

func TestValidateDuplicateDimension(t *testing.T) {
	s := validStar()
	s.Dimensions = append(s.Dimensions, s.Dimensions[0])
	if err := s.Validate(); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("Validate() = %v, want ErrDuplicateName", err)
	}
}

func TestValidateDuplicateLevel(t *testing.T) {
	s := validStar()
	s.Dimensions[2].Levels[2].Name = "year"
	if err := s.Validate(); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("Validate() = %v, want ErrDuplicateName", err)
	}
}

func TestValidateBadSkew(t *testing.T) {
	s := validStar()
	s.Dimensions[0].SkewTheta = 3
	if err := s.Validate(); !errors.Is(err, ErrBadSkew) {
		t.Fatalf("Validate() = %v, want ErrBadSkew", err)
	}
	s.Dimensions[0].SkewTheta = -0.1
	if err := s.Validate(); !errors.Is(err, ErrBadSkew) {
		t.Fatalf("Validate() = %v, want ErrBadSkew", err)
	}
}

func TestDimensionLookups(t *testing.T) {
	s := validStar()
	d, i, err := s.Dimension("Time")
	if err != nil || i != 2 || d.Name != "Time" {
		t.Fatalf("Dimension(Time) = %v,%d,%v", d, i, err)
	}
	if _, _, err := s.Dimension("Nope"); !errors.Is(err, ErrUnknownDimension) {
		t.Fatalf("Dimension(Nope) err = %v, want ErrUnknownDimension", err)
	}
	li, err := d.LevelIndex("month")
	if err != nil || li != 2 {
		t.Fatalf("LevelIndex(month) = %d,%v", li, err)
	}
	if _, err := d.LevelIndex("week"); !errors.Is(err, ErrUnknownLevel) {
		t.Fatalf("LevelIndex(week) err = %v, want ErrUnknownLevel", err)
	}
}

func TestAttrResolution(t *testing.T) {
	s := validStar()
	a, err := s.Attr("Product.class")
	if err != nil {
		t.Fatalf("Attr: %v", err)
	}
	if a.Dim != 0 || a.Level != 4 {
		t.Fatalf("Attr(Product.class) = %+v", a)
	}
	if got := s.AttrName(a); got != "Product.class" {
		t.Fatalf("AttrName = %q", got)
	}
	if got := s.Cardinality(a); got != 605 {
		t.Fatalf("Cardinality = %d, want 605", got)
	}
	if _, err := s.Attr("noDotHere"); err == nil {
		t.Fatal("Attr(noDotHere) should fail")
	}
	if _, err := s.Attr("Nope.x"); !errors.Is(err, ErrUnknownDimension) {
		t.Fatalf("err = %v, want ErrUnknownDimension", err)
	}
	if _, err := s.Attr("Product.x"); !errors.Is(err, ErrUnknownLevel) {
		t.Fatalf("err = %v, want ErrUnknownLevel", err)
	}
}

func TestCheckAttr(t *testing.T) {
	s := validStar()
	if err := s.CheckAttr(AttrRef{Dim: 0, Level: 5}); err != nil {
		t.Fatalf("CheckAttr valid: %v", err)
	}
	if err := s.CheckAttr(AttrRef{Dim: -1}); !errors.Is(err, ErrUnknownDimension) {
		t.Fatalf("CheckAttr dim -1: %v", err)
	}
	if err := s.CheckAttr(AttrRef{Dim: 9}); !errors.Is(err, ErrUnknownDimension) {
		t.Fatalf("CheckAttr dim 9: %v", err)
	}
	if err := s.CheckAttr(AttrRef{Dim: 3, Level: 1}); !errors.Is(err, ErrUnknownLevel) {
		t.Fatalf("CheckAttr level 1: %v", err)
	}
}

func TestAttrNameOutOfRange(t *testing.T) {
	s := validStar()
	if got := s.AttrName(AttrRef{Dim: 42}); !strings.Contains(got, "?") {
		t.Fatalf("AttrName(dim 42) = %q, want placeholder", got)
	}
	if got := s.AttrName(AttrRef{Dim: 0, Level: 42}); !strings.Contains(got, "?") {
		t.Fatalf("AttrName(level 42) = %q, want placeholder", got)
	}
}

func TestFactBytesPages(t *testing.T) {
	f := FactTable{Name: "f", Rows: 1000, RowSize: 100}
	if got := f.Bytes(); got != 100_000 {
		t.Fatalf("Bytes = %d", got)
	}
	if got := f.Pages(8192); got != 13 { // 100000/8192 = 12.2 -> 13
		t.Fatalf("Pages(8192) = %d, want 13", got)
	}
	if got := f.Pages(0); got != 0 {
		t.Fatalf("Pages(0) = %d, want 0", got)
	}
}

func TestBottom(t *testing.T) {
	s := validStar()
	d := &s.Dimensions[0]
	if d.Bottom().Name != "code" {
		t.Fatalf("Bottom = %+v", d.Bottom())
	}
}

func TestClone(t *testing.T) {
	s := validStar()
	c := s.Clone()
	c.Dimensions[0].Levels[0].Cardinality = 999
	c.Fact.Rows = 1
	if s.Dimensions[0].Levels[0].Cardinality != 4 {
		t.Fatal("Clone is not deep: level mutation leaked")
	}
	if s.Fact.Rows != 24_000_000 {
		t.Fatal("Clone is not deep: fact mutation leaked")
	}
}

func TestStringRendering(t *testing.T) {
	s := validStar()
	out := s.String()
	for _, want := range []string{"Sales(24000000x100B)", "Product:", "code(9000)", "Channel: channel(9)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q missing %q", out, want)
		}
	}
}

// Property: Pages is monotonic in rows and never loses bytes
// (pages*pageSize >= bytes).
func TestPagesCoverBytes(t *testing.T) {
	f := func(rows uint32, rowSize uint16, pageShift uint8) bool {
		r := int64(rows%1_000_000) + 1
		rs := int(rowSize%512) + 1
		ps := 1 << (pageShift%6 + 9) // 512..16384
		ft := FactTable{Name: "f", Rows: r, RowSize: rs}
		return ft.Pages(ps)*int64(ps) >= ft.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
