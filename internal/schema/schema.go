// Package schema models relational star schemas with denormalized,
// hierarchically organized dimension tables and one or more fact tables,
// exactly as consumed by the WARLOCK advisor (Stöhr/Rahm, VLDB 2001, §2).
//
// A dimension is an ordered list of hierarchy levels from coarsest (index 0)
// to finest (last index). Each level is represented by a particular
// dimension attribute with a known cardinality; a value at level l has a
// unique parent at level l-1, so cardinalities are non-decreasing towards
// the bottom. Fact tables carry measure attributes and refer to the bottom
// level of each dimension by foreign key.
package schema

import (
	"errors"
	"fmt"
	"strings"
)

// Level is one hierarchy level of a dimension, identified by the dimension
// attribute that represents it (e.g. "month" inside the Time dimension).
type Level struct {
	// Name of the dimension attribute representing the level.
	Name string
	// Cardinality is the number of distinct attribute values at this level.
	Cardinality int
}

// Dimension is a denormalized, hierarchically organized dimension table.
type Dimension struct {
	// Name of the dimension (e.g. "Product").
	Name string
	// Levels from coarsest (index 0) to finest (last). Must be non-empty
	// with non-decreasing cardinalities; every level cardinality must
	// divide evenly conceptually into its children (we only require
	// monotonicity, fan-outs may be fractional on average).
	Levels []Level
	// SkewTheta is the Zipf-like skew parameter applied to the value
	// frequency distribution at the bottom level of the dimension
	// (paper §3.1: "Data skew may be incorporated at the bottom level of
	// each dimension by specifying a zipf-like data distribution").
	// 0 means uniform.
	SkewTheta float64
}

// FactTable describes one fact table of the star schema.
type FactTable struct {
	// Name of the fact table (e.g. "Sales").
	Name string
	// Rows is the total number of fact rows.
	Rows int64
	// RowSize is the size of one fact row in bytes, including the foreign
	// keys to the dimensions and all measure attributes.
	RowSize int
}

// Star is a complete star schema: one fact table plus its dimensions.
// (Multiple fact tables are modelled as multiple Star values sharing
// Dimension definitions; the advisor fragments one fact table at a time,
// mirroring the tool's per-fact-table allocation.)
type Star struct {
	Name       string
	Fact       FactTable
	Dimensions []Dimension
}

// AttrRef identifies a single dimension attribute: a (dimension, level)
// pair inside a star schema. It is the unit in which fragmentations and
// query classes are expressed.
type AttrRef struct {
	// Dim is the index of the dimension within Star.Dimensions.
	Dim int
	// Level is the index of the hierarchy level within the dimension.
	Level int
}

// Validation errors returned by Star.Validate and helpers.
var (
	ErrEmptySchema      = errors.New("schema: star has no dimensions")
	ErrNoLevels         = errors.New("schema: dimension has no levels")
	ErrBadCardinality   = errors.New("schema: level cardinality must be positive")
	ErrNonMonotonic     = errors.New("schema: level cardinalities must be non-decreasing towards the bottom")
	ErrBadRows          = errors.New("schema: fact table row count must be positive")
	ErrBadRowSize       = errors.New("schema: fact table row size must be positive")
	ErrDuplicateName    = errors.New("schema: duplicate name")
	ErrUnknownDimension = errors.New("schema: unknown dimension")
	ErrUnknownLevel     = errors.New("schema: unknown level")
	ErrBadSkew          = errors.New("schema: skew theta must be in [0, 2]")
)

// Validate checks structural invariants of the dimension.
func (d *Dimension) Validate() error {
	if strings.TrimSpace(d.Name) == "" {
		return fmt.Errorf("%w: dimension name empty", ErrDuplicateName)
	}
	if len(d.Levels) == 0 {
		return fmt.Errorf("%w (dimension %q)", ErrNoLevels, d.Name)
	}
	if d.SkewTheta < 0 || d.SkewTheta > 2 {
		return fmt.Errorf("%w (dimension %q: theta=%g)", ErrBadSkew, d.Name, d.SkewTheta)
	}
	seen := make(map[string]bool, len(d.Levels))
	prev := 0
	for i, lv := range d.Levels {
		if strings.TrimSpace(lv.Name) == "" {
			return fmt.Errorf("schema: dimension %q level %d has empty name", d.Name, i)
		}
		if seen[lv.Name] {
			return fmt.Errorf("%w: level %q in dimension %q", ErrDuplicateName, lv.Name, d.Name)
		}
		seen[lv.Name] = true
		if lv.Cardinality <= 0 {
			return fmt.Errorf("%w (dimension %q level %q: %d)", ErrBadCardinality, d.Name, lv.Name, lv.Cardinality)
		}
		if lv.Cardinality < prev {
			return fmt.Errorf("%w (dimension %q level %q: %d < %d)", ErrNonMonotonic, d.Name, lv.Name, lv.Cardinality, prev)
		}
		prev = lv.Cardinality
	}
	return nil
}

// Bottom returns the finest level of the dimension.
func (d *Dimension) Bottom() Level { return d.Levels[len(d.Levels)-1] }

// LevelIndex returns the index of the level with the given attribute name,
// or an error if no such level exists.
func (d *Dimension) LevelIndex(name string) (int, error) {
	for i, lv := range d.Levels {
		if lv.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q in dimension %q", ErrUnknownLevel, name, d.Name)
}

// Validate checks structural invariants of the fact table.
func (f *FactTable) Validate() error {
	if strings.TrimSpace(f.Name) == "" {
		return fmt.Errorf("%w: fact table name empty", ErrDuplicateName)
	}
	if f.Rows <= 0 {
		return fmt.Errorf("%w (%q: %d)", ErrBadRows, f.Name, f.Rows)
	}
	if f.RowSize <= 0 {
		return fmt.Errorf("%w (%q: %d)", ErrBadRowSize, f.Name, f.RowSize)
	}
	return nil
}

// Bytes returns the raw data volume of the fact table in bytes.
func (f *FactTable) Bytes() int64 { return f.Rows * int64(f.RowSize) }

// Pages returns the number of pages the fact table occupies for the given
// page size.
func (f *FactTable) Pages(pageSize int) int64 {
	if pageSize <= 0 {
		return 0
	}
	return ceilDiv64(f.Bytes(), int64(pageSize))
}

// Validate checks all structural invariants of the star schema.
func (s *Star) Validate() error {
	if len(s.Dimensions) == 0 {
		return ErrEmptySchema
	}
	if err := s.Fact.Validate(); err != nil {
		return err
	}
	seen := make(map[string]bool, len(s.Dimensions))
	for i := range s.Dimensions {
		d := &s.Dimensions[i]
		if err := d.Validate(); err != nil {
			return err
		}
		if seen[d.Name] {
			return fmt.Errorf("%w: dimension %q", ErrDuplicateName, d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// Dimension returns the dimension with the given name.
func (s *Star) Dimension(name string) (*Dimension, int, error) {
	for i := range s.Dimensions {
		if s.Dimensions[i].Name == name {
			return &s.Dimensions[i], i, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: %q", ErrUnknownDimension, name)
}

// Attr resolves a "Dimension.level" path such as "Product.class" into an
// AttrRef.
func (s *Star) Attr(path string) (AttrRef, error) {
	dot := strings.IndexByte(path, '.')
	if dot < 0 {
		return AttrRef{}, fmt.Errorf("schema: attribute path %q must be Dimension.level", path)
	}
	_, di, err := s.Dimension(path[:dot])
	if err != nil {
		return AttrRef{}, err
	}
	li, err := s.Dimensions[di].LevelIndex(path[dot+1:])
	if err != nil {
		return AttrRef{}, err
	}
	return AttrRef{Dim: di, Level: li}, nil
}

// AttrName renders an AttrRef back into its "Dimension.level" path.
func (s *Star) AttrName(a AttrRef) string {
	if a.Dim < 0 || a.Dim >= len(s.Dimensions) {
		return fmt.Sprintf("<dim %d?>", a.Dim)
	}
	d := &s.Dimensions[a.Dim]
	if a.Level < 0 || a.Level >= len(d.Levels) {
		return fmt.Sprintf("%s.<level %d?>", d.Name, a.Level)
	}
	return d.Name + "." + d.Levels[a.Level].Name
}

// Cardinality returns the cardinality of the attribute.
func (s *Star) Cardinality(a AttrRef) int {
	return s.Dimensions[a.Dim].Levels[a.Level].Cardinality
}

// CheckAttr verifies that the AttrRef is within bounds for this schema.
func (s *Star) CheckAttr(a AttrRef) error {
	if a.Dim < 0 || a.Dim >= len(s.Dimensions) {
		return fmt.Errorf("%w: dimension index %d", ErrUnknownDimension, a.Dim)
	}
	if a.Level < 0 || a.Level >= len(s.Dimensions[a.Dim].Levels) {
		return fmt.Errorf("%w: level index %d in dimension %q", ErrUnknownLevel, a.Level, s.Dimensions[a.Dim].Name)
	}
	return nil
}

// Clone returns a deep copy of the star schema.
func (s *Star) Clone() *Star {
	c := &Star{Name: s.Name, Fact: s.Fact}
	c.Dimensions = make([]Dimension, len(s.Dimensions))
	for i, d := range s.Dimensions {
		nd := d
		nd.Levels = append([]Level(nil), d.Levels...)
		c.Dimensions[i] = nd
	}
	return c
}

// String renders a compact single-line description of the schema, e.g.
// "Sales(24000000x100B) [Product: division(4)>line(15)>...; Time: year(2)>...]".
func (s *Star) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%dx%dB) [", s.Fact.Name, s.Fact.Rows, s.Fact.RowSize)
	for i, d := range s.Dimensions {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(d.Name)
		b.WriteString(": ")
		for j, lv := range d.Levels {
			if j > 0 {
				b.WriteByte('>')
			}
			fmt.Fprintf(&b, "%s(%d)", lv.Name, lv.Cardinality)
		}
	}
	b.WriteByte(']')
	return b.String()
}

func ceilDiv64(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
