package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"lumos/internal/fed"
	"lumos/internal/nn"
)

// ledger is every traffic counter a training run leaves: each epoch's (or
// round's) per-kind message and byte counts, an FNV-1a hash of the
// per-device send counts over all of them, the Fig. 8 summary metrics'
// bits, the simulator's transfer sizes, and the final network snapshot.
type ledger struct {
	messages  [][8]int
	bytes     [][8]int64
	perDevice uint64
	avgComm   uint64 // math.Float64bits(AvgCommRoundsPerDevice)
	simTime   int64  // SimEpochTime in ns
	upload    uint64 // hash of DeviceUploadBytes
	model     int64  // ModelBytes
	net       uint64 // hash of the final Net.Snapshot()
}

// hashInts is an FNV-1a hash of the integers in xs, each a little-endian
// word.
func hashInts[T int | int64](xs ...[]T) uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, s := range xs {
		for _, x := range s {
			binary.LittleEndian.PutUint64(w[:], uint64(x))
			h.Write(w[:])
		}
	}
	return h.Sum64()
}

// ledgerOf reads sys's counters after the steps whose traffic diffs are
// steps (an epoch trainer's EpochTraffic, or one diff per StepRound).
func ledgerOf(sys *System, steps []fed.Traffic, stats *TrainStats) ledger {
	var l ledger
	var sent [][]int
	for _, tr := range steps {
		l.messages = append(l.messages, tr.Messages)
		l.bytes = append(l.bytes, tr.Bytes)
		sent = append(sent, tr.PerDeviceSent)
	}
	l.perDevice = hashInts(sent...)
	if stats != nil {
		l.avgComm = math.Float64bits(stats.AvgCommRoundsPerDevice)
		l.simTime = int64(stats.SimEpochTime)
	}
	l.upload = hashInts(sys.DeviceUploadBytes())
	l.model = sys.ModelBytes()
	snap := sys.Net.Snapshot()
	l.net = hashInts(snap.Messages[:], snap.PerDeviceSent) ^ hashInts(snap.Bytes[:])
	return l
}

// ledgerGolden pins ledgerOf for the three runs of TestTrafficLedgerGolden,
// recorded while the traffic a round sends was written out twice (once as
// Network sends, once as DeviceUploadBytes' formula) and loss and gradient
// shares were addressed to device (v+1) mod N. The GAT run trained async
// (staleness 2) until the epoch trainers lost their async mode; as a sync
// run only its simTime moved (22011600 → 24531600 ns, the straggler no
// longer amortized), and it was re-recorded alone.
var ledgerGolden = map[string]ledger{
	"gcn-supervised-sync": {
		messages: [][8]int{
			{0, 881, 0, 0, 120, 120, 0, 0},
			{0, 881, 0, 0, 120, 120, 0, 0},
			{0, 881, 0, 0, 120, 120, 0, 0},
		},
		bytes: [][8]int64{
			{0, 126864, 0, 0, 2880, 462720, 0, 0},
			{0, 126864, 0, 0, 2880, 462720, 0, 0},
			{0, 126864, 0, 0, 2880, 462720, 0, 0},
		},
		perDevice: 0x57911da50c35004e, avgComm: 0x4022aeeeeeeeeeef, simTime: 18594960,
		upload: 0x9908f9c4736e3c51, model: 3856, net: 0x26f05dffce3283e,
	},
	"gat-unsupervised-sync": {
		messages: [][8]int{
			{0, 696, 696, 696, 120, 120, 0, 0},
			{0, 696, 696, 696, 120, 120, 0, 0},
			{0, 696, 696, 696, 120, 120, 0, 0},
		},
		bytes: [][8]int64{
			{0, 100224, 100224, 100224, 2880, 4993920, 0, 0},
			{0, 100224, 100224, 100224, 2880, 4993920, 0, 0},
			{0, 100224, 100224, 100224, 2880, 4993920, 0, 0},
		},
		perDevice: 0x9336c3c5416513f3, avgComm: 0x402b333333333333, simTime: 24531600,
		upload: 0x25099e6536fb1305, model: 41616, net: 0xbbeb88b2a284e515,
	},
	"gcn-unsupervised-rounds": {
		messages: [][8]int{
			{0, 490, 490, 490, 80, 80, 0, 0},
			{0, 463, 463, 463, 80, 80, 0, 0},
			{0, 439, 439, 439, 80, 80, 0, 0},
			{0, 490, 490, 490, 80, 80, 0, 0},
		},
		bytes: [][8]int64{
			{0, 70560, 70560, 70560, 1920, 308480, 0, 0},
			{0, 66672, 66672, 66672, 1920, 308480, 0, 0},
			{0, 63216, 63216, 63216, 1920, 308480, 0, 0},
			{0, 70560, 70560, 70560, 1920, 308480, 0, 0},
		},
		perDevice: 0xe5fde9f33edc90f3,
		upload:    0x7945beff83de5e25, model: 3856, net: 0x61bc0016e73838e3,
	},
}

// TestTrafficLedgerGolden pins every traffic counter exactly, where the
// smoke transcripts only print them rounded: a GCN supervised sync run, a
// GAT link-prediction sync run, and a sequence of link-prediction
// StepRounds under a partial participation mask.
func TestTrafficLedgerGolden(t *testing.T) {
	g := engineGraph(t, 5)
	got := map[string]ledger{}

	sup, split := supervisedSystem(t, g, Config{Backbone: nn.GCN, Epochs: 3, MCMCIterations: 10, Shards: 16, Seed: 5})
	stats, err := sup.TrainSupervised(split)
	if err != nil {
		t.Fatal(err)
	}
	got["gcn-supervised-sync"] = ledgerOf(sup, stats.EpochTraffic, stats)

	uns, es := unsupervisedSystem(t, g, Config{Backbone: nn.GAT, Epochs: 3, MCMCIterations: 10, Shards: 16, Seed: 5})
	if stats, err = uns.TrainUnsupervised(es); err != nil {
		t.Fatal(err)
	}
	got["gat-unsupervised-sync"] = ledgerOf(uns, stats.EpochTraffic, stats)

	rs, es := unsupervisedSystem(t, g, Config{Backbone: nn.GCN, MCMCIterations: 10, Shards: g.N, Seed: 5})
	sess, err := rs.NewSession(NewUnsupervisedObjective(es))
	if err != nil {
		t.Fatal(err)
	}
	var rounds []fed.Traffic
	active := make([]bool, g.N)
	for r := 0; r < 4; r++ {
		for v := range active {
			active[v] = (v+r)%3 != 0
		}
		before := rs.Net.Snapshot()
		if _, err := sess.StepRound(RoundPlan{Active: active, TTL: 2}); err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, rs.Net.Diff(before))
	}
	sess.FinishRounds()
	got["gcn-unsupervised-rounds"] = ledgerOf(rs, rounds, nil)

	for name, want := range ledgerGolden {
		if l := got[name]; !reflect.DeepEqual(l, want) {
			t.Errorf("%s: ledger\n got %+v\nwant %+v", name, l, want)
		}
	}
}

// TestRoundMessagesConserve checks the round enumeration as conservation
// laws on the four benchmark workloads' systems (two supervised, one link
// prediction; GCN and GAT), under full and partial participation:
//   - per kind, the bytes sent equal the bytes received, with the server as
//     an endpoint of its own;
//   - every message has a real sender and receiver: an embedding goes from v
//     to a retained neighbor, a pooled return from a retained neighbor to v,
//     and a loss or gradient share from v to the server (never to the old
//     placeholder device (v+1) mod N);
//   - each device's bytes equal the closed form
//     |Retained[v]|·emb·(1 + [link prediction]) + loss + grad, which is
//     DeviceUploadBytes()[v];
//   - the network charges exactly the listed messages.
//
// One placeholder stays outside the enumeration: negative-sample fetches are
// charged server to server (accountNegSampling).
func TestRoundMessagesConserve(t *testing.T) {
	for _, c := range constructCases {
		train, full, cfg := c.system(t)
		sys, err := NewSystem(train, full, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := sys.G.N
		emb, grad, loss := sys.wireBytes()
		up := sys.DeviceUploadBytes()
		half := make([]bool, n)
		for v := range half {
			half[v] = v%2 == 0
		}
		for _, active := range [][]bool{nil, half} {
			// Endpoint n is the server.
			var sent, recv [8][]int64
			for k := range sent {
				sent[k], recv[k] = make([]int64, n+1), make([]int64, n+1)
			}
			charged := make([]int64, n)
			msgs := make([]int, n)
			var kindMsgs [8]int
			var kindBytes [8]int64
			endpoint := func(id int) int {
				if id == fed.ServerID {
					return n
				}
				if id < 0 || id >= n {
					t.Fatalf("%s: endpoint %d is neither a device nor the server", c.name, id)
				}
				return id
			}
			sys.roundMessages(active, func(v, from, to int, kind fed.MessageKind, bytes int) {
				if active != nil && !active[v] {
					t.Fatalf("%s: absent device %d charged", c.name, v)
				}
				retained := func(u int) bool {
					for _, w := range sys.Trees[v].Retained {
						if w == u {
							return true
						}
					}
					return false
				}
				ok := false
				switch kind {
				case fed.MsgEmbedding:
					ok = from == v && retained(to)
				case fed.MsgPooled:
					ok = to == v && retained(from) && c.task == Unsupervised
				case fed.MsgLoss, fed.MsgGradient:
					ok = from == v && to == fed.ServerID
				}
				if !ok {
					t.Fatalf("%s: device %d charged %v message %d→%d", c.name, v, kind, from, to)
				}
				sent[kind][endpoint(from)] += int64(bytes)
				recv[kind][endpoint(to)] += int64(bytes)
				charged[v] += int64(bytes)
				if from != fed.ServerID {
					msgs[from]++
				}
				kindMsgs[kind]++
				kindBytes[kind] += int64(bytes)
			})
			for k := range sent {
				var s, r int64
				for i := range sent[k] {
					s += sent[k][i]
					r += recv[k][i]
				}
				if s != r {
					t.Errorf("%s: %v bytes sent %d, received %d", c.name, fed.MessageKind(k), s, r)
				}
			}
			pooled := 0
			if c.task == Unsupervised {
				pooled = 1
			}
			for v := 0; v < n; v++ {
				want := int64(0)
				if active == nil || active[v] {
					want = int64(len(sys.Trees[v].Retained)*emb*(1+pooled) + loss + grad)
				}
				if charged[v] != want {
					t.Fatalf("%s: device %d charged %d bytes, closed form %d", c.name, v, charged[v], want)
				}
				if active == nil && charged[v] != up[v] {
					t.Fatalf("%s: device %d charged %d bytes, DeviceUploadBytes %d", c.name, v, charged[v], up[v])
				}
			}
			before := sys.Net.Snapshot()
			sys.accountEpochTraffic(active)
			d := sys.Net.Diff(before)
			if d.Messages != kindMsgs || d.Bytes != kindBytes || !reflect.DeepEqual(d.PerDeviceSent, msgs) {
				t.Errorf("%s: network charged %v / %v / %v, enumeration lists %v / %v / %v",
					c.name, d.Messages, d.Bytes, d.PerDeviceSent, kindMsgs, kindBytes, msgs)
			}
		}
	}
}
