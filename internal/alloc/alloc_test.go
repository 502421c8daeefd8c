package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchemeString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || GreedySize.String() != "greedy-size" {
		t.Fatal("Scheme.String mismatch")
	}
	if Scheme(5).String() != "Scheme(5)" {
		t.Fatalf("unknown = %q", Scheme(5).String())
	}
}

func TestAllocateErrors(t *testing.T) {
	if _, err := Allocate(RoundRobin, []int64{1}, 0); !errors.Is(err, ErrBadDisks) {
		t.Fatalf("disks=0: %v", err)
	}
	if _, err := Allocate(RoundRobin, nil, 4); !errors.Is(err, ErrNoFragments) {
		t.Fatalf("no fragments: %v", err)
	}
	if _, err := Allocate(RoundRobin, []int64{1, -2}, 4); !errors.Is(err, ErrNegativeSize) {
		t.Fatalf("negative: %v", err)
	}
	if _, err := Allocate(Scheme(9), []int64{1}, 4); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	pages := []int64{10, 10, 10, 10, 10, 10}
	pl, err := Allocate(RoundRobin, pages, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 0, 1}
	for i, d := range pl.DiskOf {
		if d != want[i] {
			t.Fatalf("DiskOf = %v, want %v", pl.DiskOf, want)
		}
	}
	if pl.Load[0] != 20 || pl.Load[2] != 10 {
		t.Fatalf("Load = %v", pl.Load)
	}
}

func TestGreedyBalancesSkew(t *testing.T) {
	// One huge fragment + many small ones: round-robin piles the big one
	// onto a disk that also receives its round-robin share; greedy gives
	// the big fragment its own disk.
	pages := []int64{1000, 10, 10, 10, 10, 10, 10, 10}
	rr, _ := Allocate(RoundRobin, pages, 4)
	gr, _ := Allocate(GreedySize, pages, 4)
	if gr.Stats().MaxLoad > rr.Stats().MaxLoad {
		t.Fatalf("greedy max %d should be <= rr max %d", gr.Stats().MaxLoad, rr.Stats().MaxLoad)
	}
	// The biggest fragment must land alone on its disk.
	bigDisk := gr.DiskOf[0]
	for i := 1; i < len(pages); i++ {
		if gr.DiskOf[i] == bigDisk {
			t.Fatalf("fragment %d shares disk with the 1000-page fragment: %v", i, gr.DiskOf)
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pages := make([]int64, 200)
	for i := range pages {
		pages[i] = int64(rng.Intn(500))
	}
	a, _ := Allocate(GreedySize, pages, 16)
	b, _ := Allocate(GreedySize, pages, 16)
	for i := range a.DiskOf {
		if a.DiskOf[i] != b.DiskOf[i] {
			t.Fatalf("non-deterministic at fragment %d", i)
		}
	}
}

func TestGreedyNearOptimalBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pages := make([]int64, 1000)
	var total int64
	for i := range pages {
		pages[i] = int64(rng.Intn(1000) + 1)
		total += pages[i]
	}
	pl, _ := Allocate(GreedySize, pages, 10)
	st := pl.Stats()
	avg := float64(total) / 10
	// LPT-style greedy is within the largest item of the average here.
	if float64(st.MaxLoad) > avg+1000 {
		t.Fatalf("greedy max load %d too far above avg %g", st.MaxLoad, avg)
	}
	if st.TotalPages != total {
		t.Fatalf("mass lost: %d != %d", st.TotalPages, total)
	}
}

func TestChooseSwitchesOnSkew(t *testing.T) {
	uniform := []int64{10, 10, 10, 10, 10, 10, 10, 10}
	pl, err := Choose(uniform, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Scheme != RoundRobin {
		t.Fatalf("uniform: got %v", pl.Scheme)
	}
	skewed := []int64{1000, 10, 10, 10, 10, 10, 10, 10}
	pl, err = Choose(skewed, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Scheme != GreedySize {
		t.Fatalf("skewed: got %v", pl.Scheme)
	}
	// cvThreshold <= 0 falls back to the default.
	pl, err = Choose(uniform, 4, 0)
	if err != nil || pl.Scheme != RoundRobin {
		t.Fatalf("default threshold: %v %v", pl, err)
	}
}

func TestStats(t *testing.T) {
	pl, _ := Allocate(RoundRobin, []int64{30, 10, 20, 10}, 2)
	st := pl.Stats()
	// disk0: 30+20=50, disk1: 10+10=20.
	if st.MinLoad != 20 || st.MaxLoad != 50 || st.AvgLoad != 35 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.TotalPages != 70 {
		t.Fatalf("TotalPages = %d", st.TotalPages)
	}
	if st.Imbalance < 1.42 || st.Imbalance > 1.43 { // 50/35
		t.Fatalf("Imbalance = %g", st.Imbalance)
	}
	empty := &Placement{}
	if s := empty.Stats(); s.TotalPages != 0 || s.CV != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
	zero, _ := Allocate(RoundRobin, []int64{0, 0}, 2)
	if s := zero.Stats(); s.CV != 0 || s.Imbalance != 0 {
		t.Fatalf("zero stats = %+v", s)
	}
}

func TestFitsCapacity(t *testing.T) {
	pl, _ := Allocate(RoundRobin, []int64{30, 10, 20, 10}, 2)
	if !pl.FitsCapacity(50) {
		t.Fatal("should fit 50")
	}
	if pl.FitsCapacity(49) {
		t.Fatal("should not fit 49")
	}
}

// Property: both schemes conserve mass and produce valid disk indices.
func TestAllocationInvariants(t *testing.T) {
	f := func(sizes []uint16, disksRaw uint8, greedyScheme bool) bool {
		if len(sizes) == 0 {
			return true
		}
		disks := int(disksRaw%32) + 1
		pages := make([]int64, len(sizes))
		var total int64
		for i, s := range sizes {
			pages[i] = int64(s)
			total += int64(s)
		}
		scheme := RoundRobin
		if greedyScheme {
			scheme = GreedySize
		}
		pl, err := Allocate(scheme, pages, disks)
		if err != nil {
			return false
		}
		var placed int64
		for i, d := range pl.DiskOf {
			if d < 0 || d >= disks {
				return false
			}
			placed += pages[i]
		}
		var loadSum int64
		for _, l := range pl.Load {
			loadSum += l
		}
		return placed == total && loadSum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy's max load is bounded by avg + largest fragment (the
// classical LPT argument: the last fragment placed on the max disk went to
// the then-least-loaded disk, whose load was <= avg).
func TestGreedyLPTBoundProperty(t *testing.T) {
	f := func(sizes []uint16, disksRaw uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		disks := int(disksRaw%16) + 1
		pages := make([]int64, len(sizes))
		var total, largest int64
		for i, s := range sizes {
			pages[i] = int64(s)
			total += int64(s)
			if int64(s) > largest {
				largest = int64(s)
			}
		}
		gr, err := Allocate(GreedySize, pages, disks)
		if err != nil {
			return false
		}
		avg := float64(total) / float64(disks)
		return float64(gr.Stats().MaxLoad) <= avg+float64(largest)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundRobinMatchesModulo: the wrapping-counter placement equals the
// modulo reference (fragment i on disk i % disks) for every disk count
// 1-65, over fragment counts below, at and well above the disk count.
func TestRoundRobinMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for disks := 1; disks <= 65; disks++ {
		for _, n := range []int{1, disks, disks + 1, 3*disks + 2} {
			pages := make([]int64, n)
			for i := range pages {
				pages[i] = rng.Int63n(1000)
			}
			pl, err := Allocate(RoundRobin, pages, disks)
			if err != nil {
				t.Fatal(err)
			}
			load := make([]int64, disks)
			for i, p := range pages {
				if pl.DiskOf[i] != i%disks {
					t.Fatalf("disks=%d n=%d: fragment %d on disk %d, want %d", disks, n, i, pl.DiskOf[i], i%disks)
				}
				load[i%disks] += p
			}
			for d := range load {
				if pl.Load[d] != load[d] {
					t.Fatalf("disks=%d n=%d: disk %d load %d, want %d", disks, n, d, pl.Load[d], load[d])
				}
			}
		}
	}
}
