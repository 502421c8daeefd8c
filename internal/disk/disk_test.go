package disk

import (
	"errors"
	"testing"
	"time"
)

func TestDefault2001Valid(t *testing.T) {
	p := Default2001()
	if err := p.Validate(); err != nil {
		t.Fatalf("Default2001 invalid: %v", err)
	}
	if p.Disks != 64 || p.PageSize != 8192 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

func TestValidateErrors(t *testing.T) {
	base := Default2001()
	cases := []struct {
		name string
		mut  func(*Params)
		want error
	}{
		{"pageSize", func(p *Params) { p.PageSize = 0 }, ErrBadPageSize},
		{"disks", func(p *Params) { p.Disks = -1 }, ErrBadDisks},
		{"capacity", func(p *Params) { p.CapacityBytes = 0 }, ErrBadCapacity},
		{"seek", func(p *Params) { p.AvgSeek = -time.Millisecond }, ErrBadTiming},
		{"rotation", func(p *Params) { p.AvgRotation = -1 }, ErrBadTiming},
		{"rate", func(p *Params) { p.TransferRate = 0 }, ErrBadTiming},
		{"prefetch", func(p *Params) { p.PrefetchPages = -1 }, ErrBadPrefetch},
		{"bmPrefetch", func(p *Params) { p.BitmapPrefetchPages = -2 }, ErrBadPrefetch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mut(&p)
			if err := p.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestPageTransfer(t *testing.T) {
	p := Default2001()
	// 8192 bytes at 20 MiB/s = 8192/(20*1048576) s ≈ 390.6 µs.
	got := p.PageTransfer()
	want := time.Duration(float64(8192) / float64(20<<20) * float64(time.Second))
	if got != want {
		t.Fatalf("PageTransfer = %v, want %v", got, want)
	}
	if got < 380*time.Microsecond || got > 400*time.Microsecond {
		t.Fatalf("PageTransfer = %v, want ~390µs", got)
	}
}

func TestEffectivePrefetch(t *testing.T) {
	p := Default2001()
	if got := p.EffectivePrefetch(16); got != 16 {
		t.Fatalf("unset: %d, want suggestion 16", got)
	}
	if got := p.EffectivePrefetch(0); got != 1 {
		t.Fatalf("unset+zero suggestion: %d, want 1", got)
	}
	p.PrefetchPages = 4
	if got := p.EffectivePrefetch(16); got != 4 {
		t.Fatalf("fixed: %d, want 4", got)
	}
}

func TestEffectiveBitmapPrefetch(t *testing.T) {
	p := Default2001()
	if got := p.EffectiveBitmapPrefetch(32); got != 32 {
		t.Fatalf("all unset: %d, want suggestion", got)
	}
	p.PrefetchPages = 8
	if got := p.EffectiveBitmapPrefetch(32); got != 8 {
		t.Fatalf("fact set: %d, want fact granule 8", got)
	}
	p.BitmapPrefetchPages = 2
	if got := p.EffectiveBitmapPrefetch(32); got != 2 {
		t.Fatalf("bitmap set: %d, want 2", got)
	}
	p = Default2001()
	if got := p.EffectiveBitmapPrefetch(0); got != 1 {
		t.Fatalf("nothing: %d, want 1", got)
	}
}
