package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lumos/internal/core"
	"lumos/internal/fleet"
)

// priceGossip prices one gossip round on the virtual clock and returns its
// commit time. A participant computes from max(its radio-free time, the
// previous commit), then its delta crosses each live link — links are
// priced at the bottleneck endpoint's bandwidth
// (fed.CostModel.LinkBytesPerSecond) and queue concurrent deltas under
// Scenario.LinkDiscipline (processor sharing by default). A device's round
// ends when its compute is done and every inbound delta has been delivered;
// the round commits at the slowest participant (synchronous gossip). Energy
// charges each participant its compute at the profile-scaled power draw plus
// O(degree) radio traffic: one upload per present neighbor, plus every delta
// it receives. Links serve in ascending (u,v) order, so the priced round is
// deterministic.
func (s *Simulator) priceGossip(r int, participants []int, prev float64, rs *RoundStats) (float64, error) {
	tp, sc := s.topo, &s.scratch
	present := sc.present

	// Compute: every participant steps from the previous commit (or its own
	// radio-free time), and its energy charges compute plus the round's full
	// O(degree) gossip traffic.
	for _, d := range participants {
		start := s.freeAt[d]
		if start < prev {
			start = prev
		}
		ct := s.computeTime(d)
		if s.tr != nil {
			s.tr.Span(d+1, "device", "compute", start, start+ct,
				map[string]any{"round": r})
		}
		s.push(evComputeDone, start+ct, d, r)
		sent, recv := int64(0), int64(0)
		for _, j := range tp.Neighbors(d) {
			if present[j] {
				sent += s.up[d]
				recv += s.up[j]
			}
		}
		e := s.sc.Cost.Energy(ct, s.profiles[d].Power, sent+recv)
		s.energy[d] += e
		rs.Energy += e
		rs.Bytes += sent // each delta is counted once, at its sender
	}

	// Delta exchange: drain compute-done events in clock order and queue one
	// delta per live link direction; each link's batch is then served under
	// the link discipline, in ascending (u,v) link order.
	computeDone, jobs, meta := sc.computeDone, sc.jobs, sc.meta
	for _, k := range sc.keys {
		jobs[k], meta[k] = jobs[k][:0], meta[k][:0]
	}
	keys := sc.keys[:0]
	for s.q.Len() > 0 {
		e := s.q.pop()
		if e.kind != evComputeDone {
			return 0, fmt.Errorf("unexpected %v event during gossip compute", e.kind)
		}
		d := e.device
		computeDone[d] = e.at
		arrive := e.at + s.sc.Cost.MsgLatency.Seconds()*s.profiles[d].Latency
		for _, j := range tp.Neighbors(d) {
			if !present[j] {
				continue
			}
			k := linkKey(d, j)
			if len(jobs[k]) == 0 {
				keys = append(keys, k)
			}
			jobs[k] = append(jobs[k], fleet.Job{At: arrive, Bytes: s.up[d]})
			meta[k] = append(meta[k], deltaMeta{sender: d, receiver: j})
		}
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	sc.keys = keys
	for _, k := range keys {
		departed := s.link(k).ServeBatch(jobs[k])
		for i, m := range meta[k] {
			s.mDeltas.Inc()
			s.mGossipBytes.Add(jobs[k][i].Bytes)
			if s.tr != nil {
				s.tr.Span(m.sender+1, "device", "gossip-delta",
					jobs[k][i].At, departed[i],
					map[string]any{"round": r, "to": m.receiver})
			}
			s.push(evDelta, departed[i], m.receiver, r)
		}
	}
	// A device's round ends when its compute and every inbound delta are
	// done; the commit barriers on the slowest participant.
	end := sc.end
	for _, d := range participants {
		end[d] = computeDone[d]
	}
	for s.q.Len() > 0 {
		e := s.q.pop()
		if e.at > end[e.device] {
			end[e.device] = e.at
		}
	}
	commit := prev
	for _, d := range participants {
		if end[d] > commit {
			commit = end[d]
		}
		s.freeAt[d] = end[d]
		s.lastPart[d] = r
	}
	return commit, nil
}

// gossipTrainer trains decentralized (core.SchedGossip) rounds, where there
// is no aggregator and no global model: every device owns a full model
// replica (core.Replica). Each participant's replica moves into the shared
// System (SwapReplica), takes one local step — a single-device engine round —
// and moves out as its pre-mix half; then every participant averages its own
// half with its present contact-graph neighbors' halves under
// Metropolis–Hastings weights
//
//	w(d,j) = 1 / (1 + max(deg d, deg j)),   w(d,d) = 1 − Σ_j w(d,j)
//
// over the full-topology degrees — the classic symmetric, doubly-stochastic
// gossip matrix, under which a complete topology with full participation
// degenerates to uniform 1/n averaging. That is the bridge to
// star-synchronous FedAvg in form only: nothing pins it as an identity.
// TestGossipCompleteMatchesStarSync compares final metrics after six rounds
// on a 16-device system, within 0.15 (a 4-vertex test split, so exact
// agreement) on seeds 31, 33 and 34, and pins seeds 32 and 35 at their
// recorded divergence (star 1.0, gossip 0.5). Absent neighbors' mass folds
// back into the self weight, so a device that gossips alone simply keeps its
// model. An idle round moves no replica.
//
// Local step: for node classification a participant's loss reads one pooled
// row, its own vertex's, and the engine combines only that row: the device's
// own fresh partial plus the cached partials of every device whose tree has
// a leaf for that vertex — its graph neighbours that retained it — as they
// last pushed them, computed under their own replicas (Session.StepRound's
// stale-partial cache, which a gossip round refreshes once per participant).
// That is what a device in a decentralized deployment would hold: its own
// embedding and the embeddings its neighbours last sent it. Those neighbours
// come from the data graph, not the contact graph the replicas mix over.
//
// Evaluation and the run's verdict are on the consensus average — the model
// a deployment would extract by averaging whatever the devices hold — or,
// under model selection, on the best-validation average.
//
// Determinism: participants step, move out, and mix in ascending device order
// and MixReplicas reduces in frozen slice order — so, with the engine's own
// worker-count invariance, the timeline is bit-identical for every Workers
// value under a fixed seed.
type gossipTrainer struct {
	s    *Simulator
	sess *core.Session
	// reps are the devices' replicas; halves hold each participant's
	// post-step, pre-mix model within a round; avg is the consensus-average
	// buffer and best the best-validation average so far.
	reps, halves []*core.Replica
	avg, best    *core.Replica
	bestVal      float64
	// ttl is the cache TTL in engine rounds: each gossip round drives up to
	// n single-device engine rounds, so it is rescaled to keep "rounds of
	// real time" semantics.
	ttl int
	// solo is the one-device participation mask of a local step: a single
	// entry is set around each StepRound, which does not retain it.
	solo []bool
	srcs []*core.Replica // one device's mix sources
	ws   []float64       // and their weights
	// uniform is the 1/n weight vector of the consensus average.
	uniform []float64
}

// newGossipTrainer starts every device from the assembled model.
func newGossipTrainer(s *Simulator, sess *core.Session) *gossipTrainer {
	n := s.sys.G.N
	seed := s.sys.NewReplica()
	g := &gossipTrainer{
		s: s, sess: sess,
		reps: make([]*core.Replica, n), halves: make([]*core.Replica, n),
		avg: seed, bestVal: math.Inf(-1), ttl: s.sc.PartialTTL * n,
		solo: make([]bool, n), uniform: make([]float64, n),
	}
	for d := range g.reps {
		g.reps[d] = seed.Clone()
		g.halves[d] = seed.Clone()
		g.uniform[d] = 1 / float64(n)
	}
	return g
}

func (g *gossipTrainer) train(participants []int, _ bool, rs *RoundStats) error {
	sys := g.s.sys
	losses, counted := 0.0, 0
	for _, d := range participants {
		// Move the replica in: reps[d] now holds scratch, which d's mix
		// below overwrites.
		if err := sys.SwapReplica(g.reps[d]); err != nil {
			return fmt.Errorf("device %d: %w", d, err)
		}
		g.solo[d] = true
		out, err := g.sess.StepRound(core.RoundPlan{Active: g.solo, TTL: g.ttl})
		g.solo[d] = false
		if err != nil {
			return fmt.Errorf("device %d: %w", d, err)
		}
		if !out.Skipped {
			losses += out.Loss
			counted++
		}
		rs.Dropped += out.ExpiredParts
		if err := sys.SwapReplica(g.halves[d]); err != nil {
			return fmt.Errorf("device %d: %w", d, err)
		}
	}
	if counted > 0 {
		rs.Loss = losses / float64(counted)
	}
	rs.Skipped = counted == 0

	// Mix over the halves, self first then present neighbors ascending —
	// the frozen reduction order.
	tp, present := g.s.topo, g.s.scratch.present
	for _, d := range participants {
		srcs := append(g.srcs[:0], g.halves[d])
		ws := append(g.ws[:0], 0)
		for _, j := range tp.Neighbors(d) {
			if !present[j] {
				continue
			}
			srcs = append(srcs, g.halves[j])
			ws = append(ws, tp.MetropolisWeight(d, j))
		}
		g.srcs, g.ws = srcs, ws
		self := 1.0
		for _, w := range ws[1:] {
			self -= w
		}
		ws[0] = self
		if err := core.MixReplicas(g.reps[d], srcs, ws); err != nil {
			return fmt.Errorf("device %d mix: %w", d, err)
		}
	}
	return nil
}

// evaluate measures the consensus average and, under model selection, keeps
// the best-validation average for finish.
func (g *gossipTrainer) evaluate(rs *RoundStats) error {
	if err := g.loadAverage(); err != nil {
		return err
	}
	m, err := g.sess.TestMetric()
	if err != nil {
		return fmt.Errorf("evaluation: %w", err)
	}
	rs.Metric, rs.Evaluated = m, true
	if !g.s.sc.ModelSelection {
		return nil
	}
	v, ok, err := g.sess.ValidationMetric()
	if err != nil || !ok {
		return err
	}
	rs.ValMetric, rs.ValEvaluated = v, true
	if v > g.bestVal {
		g.bestVal = v
		g.best = g.avg.Clone()
	}
	return nil
}

func (g *gossipTrainer) finish() error {
	var err error
	if g.best != nil {
		err = g.s.sys.LoadReplica(g.best)
	} else {
		err = g.loadAverage()
	}
	if err != nil {
		return err
	}
	g.sess.FinishRounds() // gossip queues no stale gradients; keeps the session lifecycle uniform
	return nil
}

// loadAverage mixes the uniform 1/n average of every device's replica into
// avg and installs it in the system.
func (g *gossipTrainer) loadAverage() error {
	if err := core.MixReplicas(g.avg, g.reps, g.uniform); err != nil {
		return err
	}
	return g.s.sys.LoadReplica(g.avg)
}

// deltaMeta names the endpoints of one queued gossip delta.
type deltaMeta struct{ sender, receiver int }

// linkKey canonicalizes an undirected contact-graph edge.
func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// link returns (lazily creating) the server for one contact-graph edge: a
// dedicated device-to-device channel priced at the bottleneck endpoint's
// bandwidth, queueing concurrent deltas under the scenario's link
// discipline.
func (s *Simulator) link(k [2]int) *fleet.Server {
	srv, ok := s.links[k]
	if !ok {
		srv = &fleet.Server{
			BytesPerSecond: s.sc.Cost.LinkBytesPerSecond(
				s.profiles[k[0]].Bandwidth, s.profiles[k[1]].Bandwidth),
			Discipline: s.linkDisc,
			Wait:       s.linkWait,
			Served:     s.linkJobs,
		}
		s.links[k] = srv
	}
	return srv
}
