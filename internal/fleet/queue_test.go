package fleet

import (
	"math"
	"testing"
)

func TestParseDiscipline(t *testing.T) {
	for in, want := range map[string]Discipline{"": DiscFIFO, "fifo": DiscFIFO, "ps": DiscPS} {
		got, err := ParseDiscipline(in)
		if err != nil || got != want {
			t.Errorf("ParseDiscipline(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDiscipline("lifo"); err == nil {
		t.Error("unknown discipline accepted")
	}
	if DiscFIFO.String() != "fifo" || DiscPS.String() != "ps" {
		t.Error("discipline names wrong")
	}
}

// The defining PS property: k equal jobs arriving together all finish
// together, each at k × its solo service time — no job is privileged.
func TestServePSEqualJobsFinishTogether(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		s := Server{BytesPerSecond: 100, Discipline: DiscPS}
		jobs := make([]Job, k)
		for i := range jobs {
			jobs[i] = Job{At: 1, Bytes: 200} // solo service 2s each
		}
		done := s.ServeBatch(jobs)
		want := 1 + 2*float64(k)
		for i, d := range done {
			if math.Abs(d-want) > 1e-9 {
				t.Fatalf("k=%d job %d departs %v, want %v", k, i, d, want)
			}
		}
		if math.Abs(s.freeAt-want) > 1e-9 {
			t.Fatalf("k=%d freeAt %v, want %v", k, s.freeAt, want)
		}
	}
}

// A short job arriving while a long one is in flight slows both: with two
// in flight each drains at half rate, and the long job's departure reflects
// the shared span exactly.
func TestServePSStaggeredArrivals(t *testing.T) {
	s := Server{BytesPerSecond: 100, Discipline: DiscPS}
	done := s.ServeBatch([]Job{
		{At: 0, Bytes: 400}, // solo 4s
		{At: 1, Bytes: 100}, // solo 1s, arrives with 3s of job 0 left
	})
	// From t=1 both share: job 1 needs 1s solo → departs at 1 + 2 = 3.
	// Job 0 drains 1s solo in [0,1), 1s solo in [1,3), then finishes its
	// remaining 2s alone: departs at 5.
	if math.Abs(done[1]-3) > 1e-9 || math.Abs(done[0]-5) > 1e-9 {
		t.Fatalf("departures %v, want [5 3]", done)
	}
}

// ServeBatch under FIFO must be bit-identical to sequential Serve calls —
// the equivalence that keeps the frozen sim goldens safe when the simulator
// routes traffic through batches.
func TestServeBatchFIFOMatchesServe(t *testing.T) {
	a := Server{BytesPerSecond: 50}
	b := Server{BytesPerSecond: 50}
	jobs := []Job{{At: 0, Bytes: 100}, {At: 0.5, Bytes: 25}, {At: 10, Bytes: 75}}
	batch := a.ServeBatch(jobs)
	for i, j := range jobs {
		if seq := b.Serve(j.At, j.Bytes); batch[i] != seq {
			t.Fatalf("job %d: batch %v != sequential %v", i, batch[i], seq)
		}
	}
	if a.freeAt != b.freeAt {
		t.Fatalf("freeAt diverged: %v vs %v", a.freeAt, b.freeAt)
	}
}

// Pre-batch work (freeAt) delays a PS batch FIFO-style: nothing starts
// before the server frees up.
func TestServePSRespectsPriorWork(t *testing.T) {
	s := Server{BytesPerSecond: 100, Discipline: DiscPS}
	s.Serve(0, 300) // FIFO job occupies the link until t=3
	done := s.ServeBatch([]Job{{At: 1, Bytes: 100}, {At: 2, Bytes: 100}})
	// Both wait until t=3, then share: each needs 1s solo → both at 3+2=5.
	for i, d := range done {
		if math.Abs(d-5) > 1e-9 {
			t.Fatalf("job %d departs %v, want 5", i, d)
		}
	}
}

func TestServeBatchDisabledPassesThrough(t *testing.T) {
	var s Server // zero capacity: contention off
	jobs := []Job{{At: 3, Bytes: 1 << 30}, {At: 1, Bytes: 1}}
	done := s.ServeBatch(jobs)
	for i, j := range jobs {
		if done[i] != j.At {
			t.Fatalf("job %d: %v, want arrival %v", i, done[i], j.At)
		}
	}
}

// Deterministic tie-break: equal arrivals keep slice order under FIFO, and
// the whole batch result is reproducible across repeated identical runs.
func TestServeBatchDeterministic(t *testing.T) {
	run := func(d Discipline) []float64 {
		s := Server{BytesPerSecond: 10, Discipline: d}
		return s.ServeBatch([]Job{{At: 2, Bytes: 30}, {At: 2, Bytes: 10}, {At: 0, Bytes: 20}})
	}
	for _, d := range []Discipline{DiscFIFO, DiscPS} {
		a, b := run(d), run(d)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: run-to-run drift at job %d: %v vs %v", d, i, a[i], b[i])
			}
		}
	}
	// FIFO with the tie: job 2 (earliest) first, then jobs 0 and 1 in slice
	// order: 0+2=2 → job0 starts max(2,2)=2, +3 → 5 → job1 starts 5, +1 → 6.
	got := run(DiscFIFO)
	want := []float64{5, 6, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIFO tie-break: %v, want %v", got, want)
		}
	}
}

// A warm server prices a batch without allocating, under either discipline:
// the departures, the arrival order and the jobs in flight reuse the
// server's scratch, and the returned departures are the ones a fresh server
// computes.
func TestServeBatchDoesNotAllocate(t *testing.T) {
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{At: float64((i*7)%8) * 1e-3, Bytes: int64(1000 + 37*i)}
	}
	for _, d := range []Discipline{DiscFIFO, DiscPS} {
		fresh := Server{BytesPerSecond: 2e6, Discipline: d}
		want := append([]float64(nil), fresh.ServeBatch(jobs)...)
		warm := Server{BytesPerSecond: 2e6, Discipline: d}
		warm.ServeBatch(jobs)
		if allocs := testing.AllocsPerRun(20, func() {
			warm.freeAt = 0
			warm.ServeBatch(jobs)
		}); allocs != 0 {
			t.Fatalf("%v: a warm ServeBatch allocates %v times", d, allocs)
		}
		warm.freeAt = 0
		for i, got := range warm.ServeBatch(jobs) {
			if got != want[i] {
				t.Fatalf("%v: job %d departs %v on a warm server, %v on a fresh one", d, i, got, want[i])
			}
		}
	}
}
