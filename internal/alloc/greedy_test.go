package alloc

import (
	"container/heap"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refDiskHeap is the container/heap min-heap over (load, disk index) that
// greedy's inline sift-down replaced; it is kept as the reference.
type refDiskHeap struct {
	load []int64
	idx  []int
}

func (h *refDiskHeap) Len() int { return len(h.idx) }
func (h *refDiskHeap) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	if h.load[a] != h.load[b] {
		return h.load[a] < h.load[b]
	}
	return a < b
}
func (h *refDiskHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *refDiskHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *refDiskHeap) Pop() any {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// refGreedy is the greedy size-based placement driven by container/heap.
func refGreedy(pages []int64, disks int) *Placement {
	pl := &Placement{Scheme: GreedySize, Disks: disks, DiskOf: make([]int, len(pages)), Load: make([]int64, disks)}
	order := make([]int, len(pages))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if pages[order[a]] != pages[order[b]] {
			return pages[order[a]] > pages[order[b]]
		}
		return order[a] < order[b]
	})
	h := &refDiskHeap{load: pl.Load, idx: make([]int, disks)}
	for d := range h.idx {
		h.idx[d] = d
	}
	heap.Init(h)
	for _, fi := range order {
		d := h.idx[0]
		pl.DiskOf[fi] = d
		pl.Load[d] += pages[fi]
		heap.Fix(h, 0)
	}
	return pl
}

// TestGreedyMatchesContainerHeap: the inline sift-down places every
// fragment on the same disk as the container/heap reference, at every
// disk count from 1 to 65, on weights drawn from a few distinct values
// (heavy ties in both fragment sizes and disk loads) and on skewed ones.
func TestGreedyMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for disks := 1; disks <= 65; disks++ {
		for trial := 0; trial < 6; trial++ {
			n := 1 + rng.Intn(600)
			var pages []int64
			if trial%2 == 0 {
				distinct := 1 + rng.Intn(5)
				pages = make([]int64, n)
				for i := range pages {
					pages[i] = int64(rng.Intn(distinct)) * int64(1+rng.Intn(2))
				}
			} else {
				pages = skewedSizes(rng, n, rng.Float64()*2, 1e5)
			}
			got, err := Allocate(GreedySize, pages, disks)
			if err != nil {
				t.Fatal(err)
			}
			want := refGreedy(pages, disks)
			if !slices.Equal(got.DiskOf, want.DiskOf) || !slices.Equal(got.Load, want.Load) {
				t.Fatalf("disks=%d n=%d: placement differs from the container/heap reference", disks, n)
			}
		}
	}
}

// BenchmarkGreedy places 30k skewed fragments on 64 disks.
func BenchmarkGreedy(b *testing.B) {
	pages := skewedSizes(rand.New(rand.NewSource(1)), 30_000, 1, 1e5)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Allocate(GreedySize, pages, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyContainerHeap is BenchmarkGreedy on the reference.
func BenchmarkGreedyContainerHeap(b *testing.B) {
	pages := skewedSizes(rand.New(rand.NewSource(1)), 30_000, 1, 1e5)
	b.ReportAllocs()
	for b.Loop() {
		refGreedy(pages, 64)
	}
}
