package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestRunErrors(t *testing.T) {
	if _, _, err := Run(0, nil); !errors.Is(err, ErrBadDisks) {
		t.Fatalf("disks=0: %v", err)
	}
	if _, _, err := Run(2, []Job{{ID: 1, Arrival: -time.Second}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("negative arrival: %v", err)
	}
	if _, _, err := Run(2, []Job{{Requests: []Request{{Disk: 5, Service: time.Second}}}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("bad disk: %v", err)
	}
	if _, _, err := Run(2, []Job{{Requests: []Request{{Disk: 0, Service: -1}}}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("bad service: %v", err)
	}
}

func TestRunSingleDiskFIFO(t *testing.T) {
	jobs := []Job{
		{ID: 0, Arrival: 0, Requests: []Request{{Disk: 0, Service: 2 * time.Second}}},
		{ID: 1, Arrival: 0, Requests: []Request{{Disk: 0, Service: 3 * time.Second}}},
	}
	m, rs, err := Run(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != 2*time.Second {
		t.Fatalf("job0 response = %v", rs[0])
	}
	if rs[1] != 5*time.Second { // waits behind job0
		t.Fatalf("job1 response = %v", rs[1])
	}
	if m.Makespan != 5*time.Second || m.TotalBusy != 5*time.Second {
		t.Fatalf("makespan=%v busy=%v", m.Makespan, m.TotalBusy)
	}
	if m.Utilization[0] != 1 {
		t.Fatalf("utilization = %v", m.Utilization)
	}
}

func TestRunParallelDisks(t *testing.T) {
	// One job touching 3 disks: response = max service.
	jobs := []Job{{ID: 0, Requests: []Request{
		{Disk: 0, Service: 1 * time.Second},
		{Disk: 1, Service: 4 * time.Second},
		{Disk: 2, Service: 2 * time.Second},
	}}}
	m, rs, err := Run(4, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != 4*time.Second {
		t.Fatalf("response = %v, want 4s", rs[0])
	}
	if m.TotalBusy != 7*time.Second {
		t.Fatalf("busy = %v", m.TotalBusy)
	}
	if m.Utilization[3] != 0 {
		t.Fatal("idle disk should have zero utilization")
	}
}

func TestRunSameDiskWithinJobSerializes(t *testing.T) {
	jobs := []Job{{ID: 0, Requests: []Request{
		{Disk: 0, Service: 1 * time.Second},
		{Disk: 0, Service: 1 * time.Second},
	}}}
	_, rs, err := Run(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != 2*time.Second {
		t.Fatalf("response = %v, want 2s", rs[0])
	}
}

func TestRunLateArrivalNoQueueing(t *testing.T) {
	jobs := []Job{
		{ID: 0, Arrival: 0, Requests: []Request{{Disk: 0, Service: time.Second}}},
		{ID: 1, Arrival: 10 * time.Second, Requests: []Request{{Disk: 0, Service: time.Second}}},
	}
	_, rs, err := Run(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != time.Second || rs[1] != time.Second {
		t.Fatalf("responses = %v", rs)
	}
}

func TestRunEmptyJob(t *testing.T) {
	m, rs, err := Run(2, []Job{{ID: 0, Arrival: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != 0 {
		t.Fatalf("empty job response = %v", rs[0])
	}
	if m.Jobs != 1 {
		t.Fatalf("jobs = %d", m.Jobs)
	}
}

func TestRunMetricsPercentiles(t *testing.T) {
	// 20 serial jobs on one disk: responses 1,2,...,20 seconds.
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = Job{ID: i, Requests: []Request{{Disk: 0, Service: time.Second}}}
	}
	m, _, err := Run(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxResponse != 20*time.Second {
		t.Fatalf("max = %v", m.MaxResponse)
	}
	if m.MeanResponse != 10500*time.Millisecond {
		t.Fatalf("mean = %v", m.MeanResponse)
	}
	if m.P95Response != 19*time.Second { // index 18 of 0..19
		t.Fatalf("p95 = %v", m.P95Response)
	}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		weights []float64
		n       int
		want    []int
	}{
		{[]float64{0.5, 0.5}, 10, []int{5, 5}},
		{[]float64{0.5, 0.3, 0.2}, 10, []int{5, 3, 2}},
		// Largest remainder: 1/3 each over 10 -> 4,3,3.
		{[]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 10, []int{4, 3, 3}},
		{[]float64{0.9, 0.1}, 1, []int{1, 0}},
		{[]float64{0.1, 0.9}, 1, []int{0, 1}},
	}
	for _, tc := range cases {
		got := apportion(tc.weights, tc.n)
		total := 0
		for i := range got {
			total += got[i]
			if got[i] != tc.want[i] {
				t.Fatalf("apportion(%v, %d) = %v, want %v", tc.weights, tc.n, got, tc.want)
			}
		}
		if total != tc.n {
			t.Fatalf("apportion(%v, %d) sums to %d", tc.weights, tc.n, total)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	a, err := PoissonArrivalsRand(100, 10, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	// Mean inter-arrival ≈ 100 ms.
	mean := float64(a[len(a)-1]) / 100 / float64(time.Millisecond)
	if mean < 60 || mean > 160 {
		t.Fatalf("mean inter-arrival = %g ms, want ≈100", mean)
	}
	b, _ := PoissonArrivalsRand(100, 10, rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
	if _, err := PoissonArrivalsRand(-1, 10, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadJob) {
		t.Fatalf("n<0: %v", err)
	}
	if _, err := PoissonArrivalsRand(5, 0, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadJob) {
		t.Fatalf("rate 0: %v", err)
	}
}
