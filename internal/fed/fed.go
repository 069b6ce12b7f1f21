// Package fed simulates the decentralized execution environment: one device
// per vertex, a coordinating server, and a network fabric that accounts for
// every logical message a real deployment would exchange (feature pushes,
// embedding exchanges for POOL, loss/gradient shares, server coordination,
// and secure-protocol traffic). The communication-round and byte counters
// drive the paper's Fig. 8a; the compute-cost model (epoch time dominated by
// the straggler, i.e. the maximum per-device workload) drives Fig. 8b.
package fed

import (
	"fmt"
	"math/rand"

	"lumos/internal/graph"
	"lumos/internal/rng"
	"lumos/internal/smc"
)

// ServerID is the pseudo-address of the coordinating server in traffic
// accounting.
const ServerID = -1

// MessageKind classifies logical messages.
type MessageKind int

const (
	// MsgFeature is an LDP-encoded feature push during embedding
	// initialization.
	MsgFeature MessageKind = iota
	// MsgEmbedding is a leaf-embedding push to the vertex's own device
	// (the POOL exchange).
	MsgEmbedding
	// MsgPooled is a pooled-embedding return to a tree holder.
	MsgPooled
	// MsgNegSample is a negative-sampling embedding request/response
	// (unsupervised training only).
	MsgNegSample
	// MsgLoss is a loss-value share.
	MsgLoss
	// MsgGradient is a gradient/model share during aggregation.
	MsgGradient
	// MsgControl is server coordination traffic (MCMC orchestration,
	// candidate announcements).
	MsgControl
	// MsgSecure is secure-computation traffic (bridged from smc.Stats).
	MsgSecure
	numMessageKinds
)

var kindNames = [...]string{
	"feature", "embedding", "pooled", "negsample", "loss", "gradient", "control", "secure",
}

// String names the message kind.
func (k MessageKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Traffic is an immutable snapshot of accumulated network accounting.
type Traffic struct {
	Messages      [numMessageKinds]int
	Bytes         [numMessageKinds]int64
	PerDeviceSent []int // messages initiated by each device (server excluded)
}

// TotalMessages sums messages over the given kinds (all kinds if none given).
func (t Traffic) TotalMessages(kinds ...MessageKind) int {
	if len(kinds) == 0 {
		s := 0
		for _, c := range t.Messages {
			s += c
		}
		return s
	}
	s := 0
	for _, k := range kinds {
		s += t.Messages[k]
	}
	return s
}

// TotalBytes sums bytes over the given kinds (all kinds if none given).
func (t Traffic) TotalBytes(kinds ...MessageKind) int64 {
	if len(kinds) == 0 {
		var s int64
		for _, c := range t.Bytes {
			s += c
		}
		return s
	}
	var s int64
	for _, k := range kinds {
		s += t.Bytes[k]
	}
	return s
}

// AvgPerDevice returns mean messages initiated per device.
func (t Traffic) AvgPerDevice() float64 {
	if len(t.PerDeviceSent) == 0 {
		return 0
	}
	s := 0
	for _, c := range t.PerDeviceSent {
		s += c
	}
	return float64(s) / float64(len(t.PerDeviceSent))
}

// Network is the accounting fabric. It does not carry payloads — the
// simulation computes results in-process — but every logical message a real
// deployment would send must be recorded here.
type Network struct {
	n       int
	traffic Traffic
}

// NewNetwork returns a fabric for n devices plus the server.
func NewNetwork(n int) *Network {
	return &Network{n: n, traffic: Traffic{PerDeviceSent: make([]int, n)}}
}

// Send records one message of the given kind and size. from/to are device
// ids or ServerID.
func (nw *Network) Send(from, to int, kind MessageKind, bytes int) {
	nw.SendN(from, to, kind, 1, bytes)
}

// SendN records n messages of the given kind from one sender to one
// receiver, each of the given size: the counters n Sends would leave.
func (nw *Network) SendN(from, to int, kind MessageKind, n, bytes int) {
	if n < 0 {
		panic(fmt.Sprintf("fed: %d messages", n))
	}
	if kind < 0 || kind >= numMessageKinds {
		panic(fmt.Sprintf("fed: unknown message kind %d", kind))
	}
	if from != ServerID && (from < 0 || from >= nw.n) {
		panic(fmt.Sprintf("fed: sender %d out of range", from))
	}
	if to != ServerID && (to < 0 || to >= nw.n) {
		panic(fmt.Sprintf("fed: receiver %d out of range", to))
	}
	nw.traffic.Messages[kind] += n
	nw.traffic.Bytes[kind] += int64(n) * int64(bytes)
	if from != ServerID {
		nw.traffic.PerDeviceSent[from] += n
	}
}

// AbsorbSecure folds a secure-computation stats delta into the fabric.
func (nw *Network) AbsorbSecure(delta smc.Stats) {
	nw.traffic.Messages[MsgSecure] += delta.Messages
	nw.traffic.Bytes[MsgSecure] += delta.Bytes
}

// Snapshot returns a copy of the current counters.
func (nw *Network) Snapshot() Traffic {
	t := nw.traffic
	t.PerDeviceSent = append([]int(nil), nw.traffic.PerDeviceSent...)
	return t
}

// Diff returns the traffic accumulated since an earlier snapshot.
func (nw *Network) Diff(since Traffic) Traffic {
	cur := nw.Snapshot()
	var d Traffic
	for k := 0; k < int(numMessageKinds); k++ {
		d.Messages[k] = cur.Messages[k] - since.Messages[k]
		d.Bytes[k] = cur.Bytes[k] - since.Bytes[k]
	}
	d.PerDeviceSent = make([]int, len(cur.PerDeviceSent))
	for i := range d.PerDeviceSent {
		d.PerDeviceSent[i] = cur.PerDeviceSent[i] - since.PerDeviceSent[i]
	}
	return d
}

// Device is one federated participant: vertex identity, private
// randomness, and a secure-computation party handle.
type Device struct {
	ID  int
	Rng *rand.Rand
	// Party is the device's side of the secure comparisons: its own 16-byte
	// PCG stream, independent of Rng.
	Party *smc.Party
}

// NewDevices instantiates one device per vertex, each with deterministic
// private randomness derived from seed and its id: its Rng is the
// rng.Device stream v and its Party is seeded with the rng.SMCParty seed v.
// Device 0's Rng is the root stream rng.New(seed) itself (see the rng
// package doc), so it replays the draws of anything else seeded with seed.
func NewDevices(g *graph.Graph, seed int64) []*Device {
	ds := make([]*Device, g.N)
	for v := 0; v < g.N; v++ {
		ds[v] = &Device{
			ID:    v,
			Rng:   rng.Stream(seed, rng.Device, v),
			Party: smc.NewParty(rng.Derive(seed, rng.SMCParty, v)),
		}
	}
	return ds
}

// Server is the coordinator. It never sees raw features, labels, degrees,
// or edges — only candidate announcements and protocol control flow.
type Server struct {
	Rng *rand.Rand
}

// NewServer returns a server with deterministic randomness.
func NewServer(seed int64) *Server {
	return &Server{Rng: rng.Stream(seed, rng.Server, 0)}
}
