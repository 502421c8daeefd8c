package disk

import (
	"errors"
	"testing"
	"testing/quick"
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

func TestIOTime(t *testing.T) {
	p := Default2001()
	if got := p.IOTime(0); got != 0 {
		t.Fatalf("IOTime(0) = %v", got)
	}
	if got := p.IOTime(-3); got != 0 {
		t.Fatalf("IOTime(-3) = %v", got)
	}
	one := p.IOTime(1)
	if one != p.Positioning()+p.PageTransfer() {
		t.Fatalf("IOTime(1) = %v", one)
	}
	// Larger I/Os amortize positioning: time grows sub-linearly per page.
	ten := p.IOTime(10)
	if ten >= 10*one {
		t.Fatalf("IOTime(10)=%v should be < 10*IOTime(1)=%v", ten, 10*one)
	}
}

func TestSequentialTime(t *testing.T) {
	p := Default2001()
	if got := p.SequentialTime(0, 8); got != 0 {
		t.Fatalf("SequentialTime(0) = %v", got)
	}
	// granule<=0 behaves as 1 page per I/O.
	a := p.SequentialTime(5, 0)
	b := time.Duration(5)*p.Positioning() + time.Duration(5)*p.PageTransfer()
	if a != b {
		t.Fatalf("SequentialTime(5,0) = %v, want %v", a, b)
	}
	// 100 pages in granules of 8 = 13 positionings + 100 transfers.
	got := p.SequentialTime(100, 8)
	want := 13*p.Positioning() + 100*p.PageTransfer()
	if got != want {
		t.Fatalf("SequentialTime(100,8) = %v, want %v", got, want)
	}
	// Bigger granule never slower.
	if p.SequentialTime(100, 32) > p.SequentialTime(100, 8) {
		t.Fatal("larger granule should not be slower for sequential scans")
	}
}

func TestTotalCapacity(t *testing.T) {
	p := Default2001()
	if got := p.TotalCapacity(); got != (18<<30)*64 {
		t.Fatalf("TotalCapacity = %d", got)
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

// Property: IOTime is monotonic in page count.
func TestIOTimeMonotonic(t *testing.T) {
	p := Default2001()
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.IOTime(x) <= p.IOTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SequentialTime never beats the pure transfer lower bound and
// never exceeds per-page random I/O.
func TestSequentialTimeBounds(t *testing.T) {
	p := Default2001()
	f := func(pagesRaw, granRaw uint16) bool {
		pages := int64(pagesRaw%10000) + 1
		gran := int64(granRaw%256) + 1
		got := p.SequentialTime(pages, gran)
		lower := time.Duration(pages) * p.PageTransfer()
		upper := time.Duration(pages) * (p.Positioning() + p.PageTransfer())
		return got >= lower && got <= upper
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
