package sim

import "fmt"

// eventKind enumerates the discrete-event types on the virtual clock.
type eventKind int

const (
	// evLeave removes a device from the available set (churn or trace).
	evLeave eventKind = iota
	// evJoin returns a device to the available set.
	evJoin
	// evComputeDone fires when a device finishes its local forward/backward.
	evComputeDone
	// evArrival fires when a device's update lands at the aggregator.
	evArrival
	// evDelta fires when a gossip model delta is delivered to a neighbor
	// (gossip scheduling only; device is the receiver).
	evDelta
)

var eventNames = [...]string{"leave", "join", "compute-done", "arrival", "delta"}

// String names the event kind.
func (k eventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return fmt.Sprintf("event(%d)", int(k))
	}
	return eventNames[k]
}

// event is one scheduled occurrence on the virtual clock.
type event struct {
	at     float64 // virtual time, seconds
	seq    int     // push order; breaks time ties deterministically
	kind   eventKind
	device int
	round  int
}

// before orders events by (at, seq).
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap over (at, seq) holding events by value,
// so a push allocates nothing once the queue has grown. Equal-time events
// pop in push order, so the processing order never depends on heap
// internals or map iteration — a hard requirement for the simulator's
// bit-reproducibility.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }

// push adds e to the queue.
func (q *eventQueue) push(e event) {
	h := append(*q, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}
