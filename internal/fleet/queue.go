package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lumos/internal/obs"
)

// Server is a deterministic M/G/1-style FIFO server modeling contention on
// the aggregator's shared link: jobs (device uploads, model broadcasts)
// arrive at known times, are served one at a time in arrival order at a
// fixed byte rate, and queue while the server is busy. With Poisson-ish
// arrivals and general (per-device) service times this is the classic
// M/G/1 station; here both streams are deterministic, which is what keeps
// the simulator bit-reproducible.
//
// The zero capacity disables the server entirely — Serve returns the
// arrival time unchanged — so "infinite aggregator capacity" degenerates to
// the independent-link model the simulator used before contention existed.
type Server struct {
	// BytesPerSecond is the shared service rate; <= 0 disables contention.
	BytesPerSecond float64

	// Discipline selects how concurrent jobs share the link: DiscFIFO (the
	// zero value — one at a time in arrival order, the aggregator model
	// above) or DiscPS (egalitarian processor sharing — every in-flight job
	// gets an equal slice of the rate, the fair-queued-NIC model gossip
	// links use). Serve always runs FIFO regardless; PS departures depend
	// on jobs that arrive later, so PS is only reachable through ServeBatch.
	Discipline Discipline

	// Wait, when non-nil, observes each job's queueing delay (seconds from
	// arrival to service start under FIFO; departure − arrival − pure
	// service, the slowdown from sharing, under PS), and Served counts
	// jobs. Both are nil-safe obs instruments, so leaving them unset costs
	// nothing and changes nothing.
	Wait   *obs.Histogram
	Served *obs.Counter

	freeAt float64
	// ServeBatch's scratch, reused across calls: the departures it returns,
	// the jobs in arrival order, and the jobs in flight under processor
	// sharing.
	done   []float64
	order  []int
	active []flight
}

// flight is a job in service under processor sharing.
type flight struct {
	idx       int
	remaining float64 // solo service seconds still owed
}

// Discipline selects a Server's queueing discipline.
type Discipline int

const (
	// DiscFIFO serves one job at a time in arrival order (M/G/1-style).
	DiscFIFO Discipline = iota
	// DiscPS shares the rate equally among all in-flight jobs (egalitarian
	// processor sharing): k equal jobs arriving together all finish at
	// k × their solo service time.
	DiscPS
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case DiscFIFO:
		return "fifo"
	case DiscPS:
		return "ps"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// ParseDiscipline parses a discipline name; "" selects FIFO, the default.
func ParseDiscipline(s string) (Discipline, error) {
	switch s {
	case "", "fifo":
		return DiscFIFO, nil
	case "ps":
		return DiscPS, nil
	default:
		return 0, fmt.Errorf("fleet: unknown queueing discipline %q (want fifo|ps)", s)
	}
}

// Job is one transfer presented to ServeBatch: its arrival time on the
// simulated clock and its size.
type Job struct {
	At    float64
	Bytes int64
}

// Enabled reports whether the server actually serializes jobs.
func (s *Server) Enabled() bool { return s != nil && s.BytesPerSecond > 0 }

// Serve enqueues a job of the given size arriving at time at and returns
// its departure time: service starts when both the job has arrived and the
// server is idle, and takes bytes/BytesPerSecond. Callers must present jobs
// in the order they should be served (the simulator's event queue already
// yields arrivals in deterministic time order).
func (s *Server) Serve(at float64, bytes int64) float64 {
	if !s.Enabled() {
		return at
	}
	start := at
	if s.freeAt > start {
		start = s.freeAt
	}
	s.Served.Inc()
	s.Wait.Observe(start - at)
	done := start + float64(bytes)/s.BytesPerSecond
	s.freeAt = done
	return done
}

// ServeBatch serves one round's worth of jobs under the server's discipline
// and returns each job's departure time, indexed like jobs. Unlike Serve,
// the whole batch must be known up front: under processor sharing a job's
// departure depends on jobs that arrive after it. Jobs may be passed in any
// order — they are processed by ascending arrival time, ties broken by
// position in the slice, so callers that append jobs in a deterministic
// order get deterministic departures. Under DiscFIFO the result is
// bit-identical to calling Serve once per job in that same order (the
// equivalence the frozen sim goldens pin). A disabled server returns every
// arrival unchanged. The returned slice is the server's scratch, valid until
// its next ServeBatch: a warm server allocates nothing.
func (s *Server) ServeBatch(jobs []Job) []float64 {
	s.done = slices.Grow(s.done[:0], len(jobs))[:len(jobs)]
	done := s.done
	if !s.Enabled() {
		for i, j := range jobs {
			done[i] = j.At
		}
		return done
	}
	s.order = slices.Grow(s.order[:0], len(jobs))[:len(jobs)]
	order := s.order
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(jobs[a].At, jobs[b].At)
	})
	if s.Discipline == DiscFIFO {
		for _, i := range order {
			done[i] = s.Serve(jobs[i].At, jobs[i].Bytes)
		}
		return done
	}

	// Egalitarian processor sharing, simulated in virtual time: between
	// consecutive arrivals the k in-flight jobs each drain their remaining
	// solo service time at rate 1/k. Work queued from before the batch
	// (freeAt) delays every job's start FIFO-style: nothing in this batch
	// begins service before the server is free.
	active := s.active[:0]
	tnow := 0.0
	first := true
	finish := func(until float64) {
		// Drain active jobs up to time `until` (+Inf = to completion).
		for len(active) > 0 {
			k := float64(len(active))
			minRem := active[0].remaining
			for _, f := range active[1:] {
				if f.remaining < minRem {
					minRem = f.remaining
				}
			}
			nextDone := tnow + minRem*k
			if until < nextDone {
				for i := range active {
					active[i].remaining -= (until - tnow) / k
				}
				tnow = until
				return
			}
			for i := range active {
				active[i].remaining -= minRem
			}
			tnow = nextDone
			kept := active[:0]
			for _, f := range active {
				if f.remaining <= 1e-12 {
					done[f.idx] = tnow
				} else {
					kept = append(kept, f)
				}
			}
			active = kept
		}
		// Idle gap before the next arrival; a +Inf final drain must leave
		// tnow at the last departure, not push it to infinity.
		if until > tnow && !math.IsInf(until, 1) {
			tnow = until
		}
	}
	for _, i := range order {
		at := jobs[i].At
		if at < s.freeAt {
			at = s.freeAt // server still busy with pre-batch work
		}
		if first {
			tnow = at
			first = false
		} else {
			finish(at)
		}
		active = append(active, flight{idx: i, remaining: float64(jobs[i].Bytes) / s.BytesPerSecond})
	}
	finish(math.Inf(1))
	s.active = active
	if len(jobs) > 0 {
		s.freeAt = tnow
	}
	for i, j := range jobs {
		s.Served.Inc()
		s.Wait.Observe(done[i] - j.At - float64(j.Bytes)/s.BytesPerSecond)
	}
	return done
}
