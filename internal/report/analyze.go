package report

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lumos/internal/obs"
)

// timeEps absorbs the µs-float round trip trace timestamps go through
// (seconds → TS*1e6 → seconds) when comparing span boundaries.
const timeEps = 1e-6

// PathSpan is one hop of a round's critical path.
type PathSpan struct {
	// Name is the span name ("catch-up", "compute", "upload", "agg-serve",
	// "gossip-delta", "broadcast").
	Name string `json:"name"`
	// Device is the device the span ran on (-1 for the aggregator track,
	// i.e. the broadcast span).
	Device int     `json:"device"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// To is the receiving device of a gossip-delta hop, -1 otherwise.
	To int `json:"to"`
}

// CriticalPath is the chain of spans that determined one round's commit
// time: the last hop ends at the commit (within timeEps) and each earlier
// hop ends where the next begins, walked backwards on the same device
// track. Spans[0].Device is the device the round's wall-clock is blamed
// on.
type CriticalPath struct {
	Round  int     `json:"round"`
	Start  float64 `json:"start"`
	Commit float64 `json:"commit"`
	// Skipped marks a round that committed without participants (no
	// device work to attribute).
	Skipped bool       `json:"skipped,omitempty"`
	Spans   []PathSpan `json:"spans,omitempty"`
	// Straggler is the blamed device (the chain's origin), -1 when the
	// round was skipped or carried no attributable device spans.
	Straggler int `json:"straggler"`
}

// DeviceUsage is one device's time budget across the whole trace,
// expressed both in seconds and as fractions of the trace's wall-clock
// span. QueueWait isolates agg-serve time — waiting for (plus being
// served by) the contended aggregator link — from useful Busy time
// (compute, transfer, catch-up).
type DeviceUsage struct {
	Device    int     `json:"device"`
	Busy      float64 `json:"busy"`
	QueueWait float64 `json:"queue_wait"`
	Idle      float64 `json:"idle"`
	BusyFrac  float64 `json:"busy_frac"`
	QueueFrac float64 `json:"queue_frac"`
	IdleFrac  float64 `json:"idle_frac"`
}

// BlameEntry is one row of the straggler-blame table: how many rounds a
// device's chain bounded, and how much wall-clock those rounds cost.
type BlameEntry struct {
	Device int `json:"device"`
	// Rounds is the number of committed rounds whose critical path
	// originated on this device.
	Rounds int `json:"rounds"`
	// Time is the summed commit-start wall-clock of those rounds.
	Time float64 `json:"time"`
}

// TraceAnalysis is the result of AnalyzeTrace: per-round critical paths,
// per-device utilization, and the top-k straggler-blame table.
type TraceAnalysis struct {
	Rounds  []CriticalPath `json:"rounds"`
	Devices []DeviceUsage  `json:"devices"`
	// Blame is sorted by Time (then Rounds) descending and truncated to
	// the requested top-k.
	Blame []BlameEntry `json:"blame"`
	// Span is the trace's wall-clock extent in seconds (latest event end
	// minus earliest start).
	Span float64 `json:"span"`
}

// deviceSpanNames are the span names that live on device tracks and can
// appear in a critical path.
var deviceSpanNames = map[string]bool{
	"catch-up": true, "compute": true, "upload": true,
	"agg-serve": true, "gossip-delta": true,
}

// span is an event lifted back into seconds with its round/track decoded.
type span struct {
	name       string
	device     int // -1 for track 0 (aggregator/gossip)
	start, end float64
	round      int
	to         int // gossip-delta receiver, else -1
}

// argInt reads an integer span arg, tolerating the float64 that
// encoding/json produces when a trace is loaded back from disk.
func argInt(args map[string]any, key string) (int, bool) {
	switch v := args[key].(type) {
	case int:
		return v, true
	case int64:
		return int(v), true
	case float64:
		return int(v), true
	default:
		return 0, false
	}
}

// AnalyzeTrace computes critical paths, device utilization, and the top-k
// straggler-blame table from a simulator trace — the events of a live
// obs.Tracer or a file loaded back via obs.ReadEventsFile. It handles
// sync, async, and gossip timelines: all three mark rounds with a "round"
// span on track 0 and put device work on track d+1, which is all the
// analyzer relies on.
//
// The utilization table has a row for every device the trace mentions —
// by a work span or a track name (the simulator names every device's
// track) — up to the highest device with work. What it allocates is thus
// bounded by the input, whatever track ids the input carries.
func AnalyzeTrace(events []obs.Event, topK int) (*TraceAnalysis, error) {
	var (
		rounds    []span             // "round" spans, track 0
		broadcast = map[int]span{}   // round → broadcast span
		byRound   = map[int][]span{} // round → device-track work spans
		spans     []span             // every decoded X span (for utilization)
		devices   []int              // every device a span or track name mentions
	)
	minT, maxT := math.Inf(1), math.Inf(-1)
	maxDevice := -1
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" && e.TID > 0 {
			devices = append(devices, e.TID-1)
		}
		if e.Ph != "X" {
			continue
		}
		s := span{
			name:   e.Name,
			device: e.TID - 1,
			start:  e.TS / 1e6,
			end:    (e.TS + e.Dur) / 1e6,
			to:     -1,
		}
		if r, ok := argInt(e.Args, "round"); ok {
			s.round = r
		} else {
			s.round = -1
		}
		if to, ok := argInt(e.Args, "to"); ok {
			s.to = to
		}
		minT = math.Min(minT, s.start)
		maxT = math.Max(maxT, s.end)
		switch {
		case e.TID == 0 && e.Name == "round":
			rounds = append(rounds, s)
		case e.TID == 0 && e.Name == "broadcast":
			broadcast[s.round] = s
		case e.TID > 0 && deviceSpanNames[e.Name]:
			maxDevice = max(maxDevice, s.device)
			devices = append(devices, s.device)
			byRound[s.round] = append(byRound[s.round], s)
			spans = append(spans, s)
		}
	}
	if len(rounds) == 0 {
		return nil, fmt.Errorf("report: trace carries no round spans (not a simulator trace?)")
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].round < rounds[j].round })

	an := &TraceAnalysis{}
	if !math.IsInf(minT, 1) {
		an.Span = maxT - minT
	}
	blameTime := map[int]float64{}
	blameRounds := map[int]int{}
	for _, rd := range rounds {
		cp := CriticalPath{Round: rd.round, Start: rd.start, Commit: rd.end, Straggler: -1}
		work := byRound[rd.round]
		if len(work) == 0 {
			cp.Skipped = true
			an.Rounds = append(an.Rounds, cp)
			continue
		}
		// The commit the device chain must reach: when a broadcast span
		// closes the round (its end coincides with the commit), the chain
		// ends where the broadcast began.
		target := rd.end
		var tail []PathSpan
		if bc, ok := broadcast[rd.round]; ok && math.Abs(bc.end-rd.end) <= timeEps {
			tail = []PathSpan{{Name: bc.name, Device: -1, Start: bc.start, End: bc.end, To: -1}}
			target = bc.start
		}
		// Terminal hop: the device span whose end reaches the target.
		// Async rounds commit at the quorum arrival, so spans ending after
		// the commit (lag-tolerated stragglers) are excluded.
		best := -1
		for i, s := range work {
			if s.end > target+timeEps {
				continue
			}
			if best < 0 || s.end > work[best].end {
				best = i
			}
		}
		if best < 0 {
			cp.Spans = tail
			an.Rounds = append(an.Rounds, cp)
			continue
		}
		// Walk backwards: each hop's predecessor is the same-device span
		// ending where the hop starts (compute→upload→agg-serve boundaries
		// meet exactly; a gossip-delta starts at its sender's compute end).
		var chain []span
		cur := work[best]
		for len(chain) <= len(work) {
			chain = append(chain, cur)
			prev := -1
			for i, s := range work {
				if s.device != cur.device || s.end > cur.start+timeEps {
					continue
				}
				if math.Abs(s.end-cur.start) > timeEps {
					continue
				}
				if prev < 0 || s.end > work[prev].end {
					prev = i
				}
			}
			if prev < 0 {
				break
			}
			next := work[prev]
			if next == cur { // self-loop guard on zero-duration spans
				break
			}
			cur = next
		}
		for i := len(chain) - 1; i >= 0; i-- {
			s := chain[i]
			cp.Spans = append(cp.Spans, PathSpan{
				Name: s.name, Device: s.device, Start: s.start, End: s.end, To: s.to,
			})
		}
		cp.Spans = append(cp.Spans, tail...)
		cp.Straggler = cp.Spans[0].Device
		an.Rounds = append(an.Rounds, cp)
		if cp.Straggler >= 0 {
			blameRounds[cp.Straggler]++
			blameTime[cp.Straggler] += cp.Commit - cp.Start
		}
	}

	// Per-device utilization over the trace's full wall-clock span.
	if maxDevice >= 0 && an.Span > 0 {
		slices.Sort(devices)
		devices = slices.Compact(devices)
		devices = devices[:sort.SearchInts(devices, maxDevice+1)]
		busy := make([]float64, len(devices))
		queue := make([]float64, len(devices))
		for _, s := range spans {
			k := sort.SearchInts(devices, s.device)
			if s.name == "agg-serve" {
				queue[k] += s.end - s.start
			} else {
				busy[k] += s.end - s.start
			}
		}
		for k, d := range devices {
			u := DeviceUsage{
				Device:    d,
				Busy:      busy[k],
				QueueWait: queue[k],
				Idle:      math.Max(0, an.Span-busy[k]-queue[k]),
			}
			u.BusyFrac = u.Busy / an.Span
			u.QueueFrac = u.QueueWait / an.Span
			u.IdleFrac = u.Idle / an.Span
			an.Devices = append(an.Devices, u)
		}
	}

	for d, n := range blameRounds {
		an.Blame = append(an.Blame, BlameEntry{Device: d, Rounds: n, Time: blameTime[d]})
	}
	sort.Slice(an.Blame, func(i, j int) bool {
		a, b := an.Blame[i], an.Blame[j]
		if a.Time != b.Time {
			return a.Time > b.Time
		}
		if a.Rounds != b.Rounds {
			return a.Rounds > b.Rounds
		}
		return a.Device < b.Device
	})
	if topK > 0 && len(an.Blame) > topK {
		an.Blame = an.Blame[:topK]
	}
	return an, nil
}
