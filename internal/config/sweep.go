package config

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// SweepDoc is the JSON input of the warlock CLI's -sweep mode: a base
// configuration plus a declarative what-if grid.
//
// Example document:
//
//	{
//	  "base": { ... same shape as a -config document ... },
//	  "grid": {
//	    "disks": [16, 32, 64],
//	    "mixScales": [{"name": "boost-Q3", "factors": {"Q3-store-month": 8}}],
//	    "skews": [{"name": "cust-hot", "theta": {"Customer": 0.86}}],
//	    "prefetch": [0, 8, 32],
//	    "allocs": ["auto", "greedy-size"]
//	  },
//	  "responseTargetMs": 500
//	}
type SweepDoc struct {
	Base SweepBaseDoc `json:"base"`
	Grid GridDoc      `json:"grid"`
	// ResponseTargetMs, when > 0, asks the report for the smallest disk
	// count whose winner meets this response time.
	ResponseTargetMs float64 `json:"responseTargetMs,omitempty"`
}

// SweepBaseDoc is the base configuration of a sweep — a Document under a
// named type so the JSON nests as {"base": {...}}.
type SweepBaseDoc = Document

// GridDoc mirrors sweep.Grid.
type GridDoc struct {
	Rows      []int64       `json:"rows,omitempty"`
	Disks     []int         `json:"disks,omitempty"`
	Prefetch  []int         `json:"prefetch,omitempty"`
	MixScales []MixScaleDoc `json:"mixScales,omitempty"`
	Skews     []SkewDoc     `json:"skews,omitempty"`
	Allocs    []string      `json:"allocs,omitempty"`
}

// MixScaleDoc mirrors sweep.MixScale.
type MixScaleDoc struct {
	Name    string             `json:"name"`
	Factors map[string]float64 `json:"factors,omitempty"`
}

// SkewDoc mirrors sweep.SkewSetting.
type SkewDoc struct {
	Name  string             `json:"name"`
	Theta map[string]float64 `json:"theta,omitempty"`
}

// ParseSweep decodes a sweep JSON document and rejects a grid larger
// than sweep.MaxScenarios before anything sizes work by it.
func ParseSweep(r io.Reader) (*SweepDoc, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d SweepDoc
	if err := dec.Decode(&d); err != nil {
		// Double-wrap for the same reason as Parse: keep transport-level
		// causes (*http.MaxBytesError) in the chain.
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if err := d.grid().CheckSize(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	return &d, nil
}

// Build converts the sweep document into the base advisor input, the
// scenario grid and the response-time target.
func (d *SweepDoc) Build() (*core.Input, *sweep.Grid, time.Duration, error) {
	in, err := d.Base.Build()
	if err != nil {
		return nil, nil, 0, err
	}
	if d.ResponseTargetMs < 0 {
		return nil, nil, 0, fmt.Errorf("%w: responseTargetMs %g must be non-negative", ErrBadConfig, d.ResponseTargetMs)
	}
	target := time.Duration(d.ResponseTargetMs * float64(time.Millisecond))
	return in, d.grid(), target, nil
}

// Scenarios returns the number of scenarios the grid expands to.
func (d *SweepDoc) Scenarios() int { return d.grid().Size() }

func (d *SweepDoc) grid() *sweep.Grid {
	g := &sweep.Grid{
		Rows:     d.Grid.Rows,
		Disks:    d.Grid.Disks,
		Prefetch: d.Grid.Prefetch,
		Allocs:   d.Grid.Allocs,
	}
	for _, ms := range d.Grid.MixScales {
		g.MixScales = append(g.MixScales, sweep.MixScale{Name: ms.Name, Factors: ms.Factors})
	}
	for _, sk := range d.Grid.Skews {
		g.Skews = append(g.Skews, sweep.SkewSetting{Name: sk.Name, Theta: sk.Theta})
	}
	return g
}

// Encode writes the sweep document as indented JSON.
func (d *SweepDoc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ExampleSweep renders a representative sweep document over the APB-1
// preset: a disk-count axis, one query-mix boost, one skew setting and a
// response-time target (warlock -emit-sweep-example).
func ExampleSweep(rows int64, disks int) *SweepDoc {
	return &SweepDoc{
		Base: *FromAPB1(rows, disks),
		Grid: GridDoc{
			Disks: []int{16, 32, 64, 128},
			MixScales: []MixScaleDoc{
				{Name: "base"},
				{Name: "boost-Q3", Factors: map[string]float64{"Q3-store-month": 8}},
			},
			Skews: []SkewDoc{
				{Name: "uniform"},
				{Name: "cust-hot", Theta: map[string]float64{"Customer": 0.86}},
			},
		},
		ResponseTargetMs: 500,
	}
}
