// Package disk models the database and disk parameters of WARLOCK's input
// layer (paper §3.1: "page size, number of disks and their capacity,
// average rotational, seek and data transfer times, prefetching granule")
// and derives physical I/O service times from them.
//
// One physical I/O reads p contiguous pages and costs
//
//	T(p) = Seek + Rotation + p · PageTransfer
//
// where Rotation is the average rotational delay (half a revolution) and
// PageTransfer = PageSize / TransferRate. Prefetching bundles several
// logically consecutive pages into one physical I/O; the performance-
// sensitive prefetch size can be fixed by the DBA or optimized per object
// class (fact table vs bitmaps), as the tool offers (§3.1).
package disk

import (
	"errors"
	"fmt"
	"time"
)

// Params carries the database and disk parameters of a configuration.
type Params struct {
	// PageSize in bytes (database page / block size).
	PageSize int
	// Disks is the number of disks the warehouse is declustered over.
	Disks int
	// CapacityBytes is the capacity of a single disk in bytes.
	CapacityBytes int64
	// AvgSeek is the average seek time of one disk.
	AvgSeek time.Duration
	// AvgRotation is the average rotational delay (typically half a
	// revolution).
	AvgRotation time.Duration
	// TransferRate is the sustained data transfer rate in bytes/second.
	TransferRate float64
	// PrefetchPages is the default prefetching granule in pages for
	// fact-table access. 0 means "let the advisor choose".
	PrefetchPages int
	// BitmapPrefetchPages is the prefetching granule for bitmap access.
	// 0 means "same as PrefetchPages" (or advisor-chosen).
	BitmapPrefetchPages int
}

// Validation errors.
var (
	ErrBadPageSize = errors.New("disk: page size must be positive")
	ErrBadDisks    = errors.New("disk: number of disks must be positive")
	ErrBadCapacity = errors.New("disk: capacity must be positive")
	ErrBadTiming   = errors.New("disk: seek/rotation must be non-negative and transfer rate positive")
	ErrBadPrefetch = errors.New("disk: prefetch pages must be non-negative")
)

// Validate checks the parameter set.
func (p *Params) Validate() error {
	if p.PageSize <= 0 {
		return fmt.Errorf("%w: %d", ErrBadPageSize, p.PageSize)
	}
	if p.Disks <= 0 {
		return fmt.Errorf("%w: %d", ErrBadDisks, p.Disks)
	}
	if p.CapacityBytes <= 0 {
		return fmt.Errorf("%w: %d", ErrBadCapacity, p.CapacityBytes)
	}
	if p.AvgSeek < 0 || p.AvgRotation < 0 || p.TransferRate <= 0 {
		return fmt.Errorf("%w: seek=%v rot=%v rate=%g", ErrBadTiming, p.AvgSeek, p.AvgRotation, p.TransferRate)
	}
	if p.PrefetchPages < 0 || p.BitmapPrefetchPages < 0 {
		return fmt.Errorf("%w: fact=%d bitmap=%d", ErrBadPrefetch, p.PrefetchPages, p.BitmapPrefetchPages)
	}
	return nil
}

// Default2001 returns disk parameters representative of the paper's era:
// 8 KiB pages, 64 disks of 18 GB, 8 ms average seek, 10k RPM (3 ms average
// rotational delay), 20 MB/s sustained transfer, prefetch left to the
// advisor.
func Default2001() Params {
	return Params{
		PageSize:      8192,
		Disks:         64,
		CapacityBytes: 18 << 30,
		AvgSeek:       8 * time.Millisecond,
		AvgRotation:   3 * time.Millisecond,
		TransferRate:  20 << 20,
	}
}

// PageTransfer returns the time to transfer one page.
func (p *Params) PageTransfer() time.Duration {
	return time.Duration(float64(p.PageSize) / p.TransferRate * float64(time.Second))
}

// Positioning returns the positioning overhead of one physical I/O
// (seek + rotational delay).
func (p *Params) Positioning() time.Duration { return p.AvgSeek + p.AvgRotation }

// EffectivePrefetch resolves the fact-table prefetch granule: the
// configured value if set, otherwise the supplied suggestion, floored at 1.
func (p *Params) EffectivePrefetch(suggested int) int {
	g := p.PrefetchPages
	if g == 0 {
		g = suggested
	}
	if g < 1 {
		g = 1
	}
	return g
}

// EffectiveBitmapPrefetch resolves the bitmap prefetch granule analogously,
// falling back to the fact-table granule before the suggestion.
func (p *Params) EffectiveBitmapPrefetch(suggested int) int {
	g := p.BitmapPrefetchPages
	if g == 0 {
		g = p.PrefetchPages
	}
	if g == 0 {
		g = suggested
	}
	if g < 1 {
		g = 1
	}
	return g
}
