package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"lumos/internal/core"
	"lumos/internal/fleet"
)

// runGossip simulates decentralized training (core.SchedGossip): there is no
// aggregator and no global model. Every device owns a full model replica
// (core.Replica); each round the sampled participants run one local training
// step on their own replica, push the updated model to every participating
// contact-graph neighbor over a dedicated per-link fleet.Server, and average
// what they received with Metropolis–Hastings weights
//
//	w(d,j) = 1 / (1 + max(deg d, deg j)),   w(d,d) = 1 − Σ_j w(d,j)
//
// over the full-topology degrees — the classic symmetric, doubly-stochastic
// gossip matrix, under which a complete topology with full participation
// degenerates to uniform 1/n averaging (the bridge to star-synchronous
// FedAvg that the golden tests pin). Absent neighbors' mass folds back into
// the self weight, so a device that gossips alone simply keeps its model.
//
// Timing: a participant computes from max(its radio-free time, the previous
// commit), then its delta crosses each live link — links are priced at the
// bottleneck endpoint's bandwidth (fed.CostModel.LinkBytesPerSecond) and
// queue concurrent deltas under Scenario.LinkDiscipline (processor sharing
// by default). A device's round ends when its compute is done and every
// inbound delta has been delivered; the round commits at the slowest
// participant (synchronous gossip). Energy charges each participant its
// compute at the profile-scaled power draw plus O(degree) radio traffic:
// one upload per present neighbor, plus every delta it receives.
//
// Determinism: participants step, store, and mix in ascending device order,
// links serve in ascending (u,v) order, and MixReplicas reduces in frozen
// slice order — so, with the engine's own worker-count invariance, the
// timeline is bit-identical for every Workers value under a fixed seed.
func (s *Simulator) runGossip(obj core.Objective) (*Result, error) {
	sess, err := s.sys.NewSession(obj)
	if err != nil {
		return nil, err
	}
	if !sess.HasTestMetric() {
		return nil, fmt.Errorf("sim: objective carries no test data to evaluate the timeline with")
	}
	n := s.sys.G.N
	tp := s.topo
	if s.tr != nil {
		s.tr.SetTrackName(roundTrack, "gossip")
		for d := 0; d < n; d++ {
			s.tr.SetTrackName(d+1, fmt.Sprintf("device %d", d))
		}
	}

	// Every device starts from the assembled model; halves hold each
	// participant's post-step, pre-mix model within a round.
	seedRep := s.sys.NewReplica()
	reps := make([]*core.Replica, n)
	halves := make([]*core.Replica, n)
	for d := range reps {
		reps[d] = seedRep.Clone()
		halves[d] = seedRep.Clone()
	}
	scratch := seedRep // reused as the consensus-average buffer

	// Each gossip round drives up to n single-device engine rounds, so the
	// cache TTL is rescaled to keep "rounds of real time" semantics.
	ttl := s.sc.PartialTTL * n
	// solo is the one-device participation mask of a local step: a single
	// entry is set around each StepRound, which does not retain it.
	solo := make([]bool, n)

	bestVal := math.Inf(-1)
	var best *core.Replica

	res := &Result{Metric: sess.MetricName()}
	prev := 0.0
	for r := 0; r < s.sc.Rounds; r++ {
		rs := RoundStats{Round: r, Start: prev}
		s.scheduleChurn(r, prev)
		s.drainBoundary(prev, &rs)
		for _, a := range s.avail {
			if a {
				rs.Available++
			}
		}
		participants := s.sample()
		rs.Participants = len(participants)
		evalRound := (s.sc.EvalEvery > 0 && (r+1)%s.sc.EvalEvery == 0) || r == s.sc.Rounds-1

		if len(participants) == 0 {
			// Nobody online: the fleet idles one base interval. Replicas
			// don't move, but a scheduled evaluation still reports the
			// consensus average.
			prev += s.sc.Cost.BaseCompute.Seconds() + s.sc.Cost.MsgLatency.Seconds()
			rs.Commit, rs.Skipped = prev, true
			if evalRound {
				if err := s.loadAverage(scratch, reps); err != nil {
					return nil, fmt.Errorf("sim: round %d: %w", r, err)
				}
				m, err := sess.TestMetric()
				if err != nil {
					return nil, fmt.Errorf("sim: round %d evaluation: %w", r, err)
				}
				rs.Metric, rs.Evaluated = m, true
				if s.sc.ModelSelection {
					if err := s.selectGossip(sess, scratch, &rs, &bestVal, &best); err != nil {
						return nil, fmt.Errorf("sim: round %d: %w", r, err)
					}
				}
			}
			s.commits = append(s.commits, prev)
			s.recordRound(&rs)
			res.Timeline = append(res.Timeline, rs)
			continue
		}

		present := make([]bool, n)
		for _, d := range participants {
			present[d] = true
		}

		// 1. Compute: every participant steps from the previous commit (or
		// its own radio-free time), and its energy charges compute plus the
		// round's full O(degree) gossip traffic.
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

		// 2. Delta exchange: drain compute-done events in clock order and
		// queue one delta per live link direction; each link's batch is then
		// served under the link discipline, in ascending (u,v) link order.
		type deltaMeta struct{ sender, receiver int }
		computeDone := make([]float64, n)
		jobs := make(map[[2]int][]fleet.Job)
		meta := make(map[[2]int][]deltaMeta)
		for s.q.Len() > 0 {
			e := heap.Pop(&s.q).(*event)
			if e.kind != evComputeDone {
				return nil, fmt.Errorf("sim: unexpected %v event during gossip compute", e.kind)
			}
			d := e.device
			computeDone[d] = e.at
			arrive := e.at + s.sc.Cost.MsgLatency.Seconds()*s.profiles[d].Latency
			for _, j := range tp.Neighbors(d) {
				if !present[j] {
					continue
				}
				k := linkKey(d, j)
				jobs[k] = append(jobs[k], fleet.Job{At: arrive, Bytes: s.up[d]})
				meta[k] = append(meta[k], deltaMeta{sender: d, receiver: j})
			}
		}
		keys := make([][2]int, 0, len(jobs))
		for k := range jobs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a][0] != keys[b][0] {
				return keys[a][0] < keys[b][0]
			}
			return keys[a][1] < keys[b][1]
		})
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
		// A device's round ends when its compute and every inbound delta
		// are done; the commit barriers on the slowest participant.
		end := make([]float64, n)
		for _, d := range participants {
			end[d] = computeDone[d]
		}
		for s.q.Len() > 0 {
			e := heap.Pop(&s.q).(*event)
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

		// 3. Local training: each participant's replica takes one
		// single-device engine round, stored as its pre-mix half.
		losses, counted := 0.0, 0
		for _, d := range participants {
			if err := s.sys.LoadReplica(reps[d]); err != nil {
				return nil, fmt.Errorf("sim: round %d device %d: %w", r, d, err)
			}
			solo[d] = true
			out, err := sess.StepRound(core.RoundPlan{Active: solo, TTL: ttl})
			solo[d] = false
			if err != nil {
				return nil, fmt.Errorf("sim: round %d device %d: %w", r, d, err)
			}
			if !out.Skipped {
				losses += out.Loss
				counted++
			}
			rs.Dropped += out.ExpiredParts
			if err := s.sys.StoreReplica(halves[d]); err != nil {
				return nil, fmt.Errorf("sim: round %d device %d: %w", r, d, err)
			}
		}
		if counted > 0 {
			rs.Loss = losses / float64(counted)
		}
		rs.Skipped = counted == 0

		// 4. Mix: Metropolis–Hastings averaging over the halves, self first
		// then present neighbors ascending — the frozen reduction order.
		for _, d := range participants {
			srcs := []*core.Replica{halves[d]}
			ws := []float64{0}
			for _, j := range tp.Neighbors(d) {
				if !present[j] {
					continue
				}
				srcs = append(srcs, halves[j])
				ws = append(ws, tp.MetropolisWeight(d, j))
			}
			self := 1.0
			for _, w := range ws[1:] {
				self -= w
			}
			ws[0] = self
			if err := core.MixReplicas(reps[d], srcs, ws); err != nil {
				return nil, fmt.Errorf("sim: round %d device %d mix: %w", r, d, err)
			}
		}

		rs.Commit = commit
		s.commits = append(s.commits, commit)
		prev = commit

		if evalRound {
			if err := s.loadAverage(scratch, reps); err != nil {
				return nil, fmt.Errorf("sim: round %d: %w", r, err)
			}
			m, err := sess.TestMetric()
			if err != nil {
				return nil, fmt.Errorf("sim: round %d evaluation: %w", r, err)
			}
			rs.Metric, rs.Evaluated = m, true
			if s.sc.ModelSelection {
				if err := s.selectGossip(sess, scratch, &rs, &bestVal, &best); err != nil {
					return nil, fmt.Errorf("sim: round %d: %w", r, err)
				}
			}
		}
		s.recordRound(&rs)
		res.Timeline = append(res.Timeline, rs)
		res.TotalBytes += rs.Bytes
		res.Dropped += rs.Dropped
		res.TotalEnergy += rs.Energy
	}

	// The run's verdict is on the consensus average (or the best-validation
	// average under model selection) — the model a deployment would extract
	// by averaging whatever the devices hold.
	if err := s.loadAverage(scratch, reps); err != nil {
		return nil, err
	}
	if best != nil {
		if err := s.sys.LoadReplica(best); err != nil {
			return nil, err
		}
	}
	sess.FinishRounds() // gossip queues no stale gradients; keeps the session lifecycle uniform
	final, err := sess.TestMetric()
	if err != nil {
		return nil, fmt.Errorf("sim: final evaluation: %w", err)
	}
	res.FinalMetric = final
	res.WallClock = prev
	total := 0
	for _, rs := range res.Timeline {
		total += rs.Participants
	}
	res.MeanParticipants = float64(total) / float64(len(res.Timeline))
	res.DeviceEnergy = append([]float64(nil), s.energy...)
	return res, nil
}

// selectGossip folds an evaluated round's validation metric into gossip
// model selection: the consensus average must already be loaded (scratch),
// and the best-scoring average is kept for the final restore.
func (s *Simulator) selectGossip(sess *core.Session, scratch *core.Replica, rs *RoundStats, bestVal *float64, best **core.Replica) error {
	v, ok, err := sess.ValidationMetric()
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	rs.ValMetric, rs.ValEvaluated = v, true
	if v > *bestVal {
		*bestVal = v
		*best = scratch.Clone()
	}
	return nil
}

// loadAverage mixes the uniform 1/n average of every device's replica into
// scratch and installs it in the system — the consensus model that gossip
// timelines evaluate and report.
func (s *Simulator) loadAverage(scratch *core.Replica, reps []*core.Replica) error {
	ws := make([]float64, len(reps))
	for i := range ws {
		ws[i] = 1 / float64(len(reps))
	}
	if err := core.MixReplicas(scratch, reps, ws); err != nil {
		return err
	}
	return s.sys.LoadReplica(scratch)
}

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
