package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lumos/internal/core"
	"lumos/internal/fleet"
	"lumos/internal/obs"
	"lumos/internal/rng"
	"lumos/internal/topo"
)

// Simulator advances one Scenario over one assembled core.System.
type Simulator struct {
	sys      *core.System
	sc       Scenario
	profiles []Profile
	up       []int64 // per-device upload bytes per participating round
	model    int64   // model broadcast bytes
	wl       []int   // per-device workloads (retained-neighbor counts)

	avail    []bool
	freeAt   []float64 // when each device's CPU frees up, virtual seconds
	lag      []int     // consecutive commits each device has missed (async)
	lastPart []int     // last round each device participated in (-1 = never)

	q   eventQueue
	seq int

	churnRng  *rand.Rand
	sampleRng *rand.Rand

	commits []float64

	// agg is the aggregator's shared uplink/downlink server: device uploads
	// and model broadcasts serialize through it when the cost model sets a
	// finite AggBytesPerSecond (zero capacity = independent links).
	agg fleet.Server
	// energy accumulates each device's joules across the run.
	energy []float64

	// Gossip state (Sched == core.SchedGossip): the contact graph, the
	// per-link servers (created lazily, keyed by the canonical u<v edge),
	// and the link queueing discipline.
	topo     *topo.Topology
	links    map[[2]int]*fleet.Server
	linkDisc fleet.Discipline

	scratch roundScratch
	// ran is set once Run starts simulating: the clock, the fleet state, the
	// servers and both random streams then belong to that run.
	ran bool

	// projected is each device's projected per-round energy spend in joules
	// and budget the PolicyEnergy cutoff — both fixed at construction, so
	// the policy's filter is deterministic and free of feedback loops.
	projected []float64
	budget    float64

	// tr records the timeline on the virtual clock (Scenario.Tracer); the
	// m* instruments live in Scenario.Metrics. All are nil when telemetry
	// is off — the instruments are nil-safe, and tracer calls that build
	// args maps are guarded on tr to keep the disabled path allocation-free.
	tr            *obs.Tracer
	mRounds       *obs.Counter
	mSkipped      *obs.Counter
	mBytes        *obs.Counter
	mEnergy       *obs.Gauge
	mRoundEnergy  *obs.Gauge
	mParticipants *obs.Gauge
	mRoundTime    *obs.Histogram
	mDeltas       *obs.Counter
	mGossipBytes  *obs.Counter
	linkWait      *obs.Histogram
	linkJobs      *obs.Counter
}

// roundTrack is the tracer track carrying round spans, commits, and
// broadcasts; device d's events go on track d+1.
const roundTrack = 0

// New prepares a simulator over an assembled system of either task. The
// system's Config.Sched and Config.Staleness select the aggregation
// discipline. Build the system with Config.Shards == device count for exact
// per-device participation; coarser shardings degrade gracefully to
// majority-vote shard participation (see core.Session.StepRound).
func New(sys *core.System, sc Scenario) (*Simulator, error) {
	if sys == nil {
		return nil, fmt.Errorf("sim: nil system")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	n := sys.G.N
	profiles, err := BuildProfiles(sc, n)
	if err != nil {
		return nil, err
	}
	gossip := sys.Cfg.Sched == core.SchedGossip
	if gossip {
		if sc.Topology == nil {
			return nil, fmt.Errorf("sim: gossip scheduling needs a Scenario.Topology (see internal/topo)")
		}
		if sc.Topology.N() != n {
			return nil, fmt.Errorf("sim: topology %q has %d nodes for %d devices", sc.Topology.Name(), sc.Topology.N(), n)
		}
	} else if sc.Topology != nil {
		return nil, fmt.Errorf("sim: Scenario.Topology requires gossip scheduling (Config.Sched = core.SchedGossip)")
	}
	linkDisc, err := fleet.ParseDiscipline(sc.LinkDiscipline)
	if err != nil {
		return nil, err
	}
	if gossip && sc.LinkDiscipline == "" {
		linkDisc = fleet.DiscPS // gossip links default to fair queueing
	}
	s := &Simulator{
		sys:       sys,
		sc:        sc,
		profiles:  profiles,
		up:        sys.DeviceUploadBytes(),
		model:     sys.ModelBytes(),
		wl:        sys.Workloads(),
		avail:     make([]bool, n),
		freeAt:    make([]float64, n),
		lag:       make([]int, n),
		lastPart:  make([]int, n),
		churnRng:  rng.New(sc.Seed ^ 0x636875726e),
		sampleRng: rng.New(sc.Seed ^ 0x73616d706c65),
		agg:       fleet.Server{BytesPerSecond: sc.Cost.AggBytesPerSecond},
		energy:    make([]float64, n),
		topo:      sc.Topology,
		linkDisc:  linkDisc,
	}
	if gossip {
		s.links = make(map[[2]int]*fleet.Server)
	}
	for d := range s.avail {
		s.avail[d] = profiles[d].OnlineAt(0)
		s.lastPart[d] = -1
	}
	if sc.Policy == PolicyEnergy {
		// Project each device's per-round spend once, from the full-fleet
		// worst case: all neighbors present under gossip, upload plus
		// broadcast under star scheduling. A fixed projection keeps the
		// policy's filter independent of the round's churn draw — the same
		// devices are in or out for the whole run.
		s.projected = make([]float64, n)
		for d := range s.projected {
			radio := s.up[d] + s.model
			if gossip {
				deg := s.topo.Degree(d)
				radio = int64(deg) * s.up[d]
				for _, j := range s.topo.Neighbors(d) {
					radio += s.up[j]
				}
			}
			s.projected[d] = sc.Cost.Energy(s.computeTime(d), s.profiles[d].Power, radio)
		}
		s.budget = sc.EnergyBudget
		if s.budget == 0 {
			sum := 0.0
			for _, e := range s.projected {
				sum += e
			}
			s.budget = sum / float64(n)
		}
	}
	s.tr = sc.Tracer
	if r := sc.Metrics; r != nil {
		s.mRounds = r.Counter("lumos_sim_rounds_total",
			"Committed simulation rounds")
		s.mSkipped = r.Counter("lumos_sim_rounds_skipped_total",
			"Rounds with no usable training signal")
		s.mBytes = r.Counter("lumos_sim_bytes_total",
			"Wire bytes moved by the fleet")
		s.mEnergy = r.Gauge("lumos_sim_energy_joules",
			"Cumulative fleet energy spend in joules")
		s.mRoundEnergy = r.Gauge("lumos_sim_round_energy_joules",
			"Energy spend of the most recent round in joules")
		s.mParticipants = r.Gauge("lumos_sim_participants",
			"Participant count of the most recent round")
		s.mRoundTime = r.Histogram("lumos_sim_round_seconds",
			"Simulated seconds from round start to commit", obs.DurationBuckets)
		s.agg.Wait = r.Histogram("lumos_sim_agg_wait_seconds",
			"Simulated queueing delay at the shared aggregator link", obs.DurationBuckets)
		s.agg.Served = r.Counter("lumos_sim_agg_jobs_total",
			"Jobs serialized through the shared aggregator link")
		if gossip {
			s.mDeltas = r.Counter("lumos_sim_gossip_deltas_total",
				"Model deltas exchanged between gossip neighbors")
			s.mGossipBytes = r.Counter("lumos_sim_gossip_bytes_total",
				"Bytes moved over gossip links")
			s.linkWait = r.Histogram("lumos_sim_gossip_link_wait_seconds",
				"Simulated sharing delay on gossip links", obs.DurationBuckets)
			s.linkJobs = r.Counter("lumos_sim_gossip_link_jobs_total",
				"Delta transfers served by gossip link servers")
		}
	}
	return s, nil
}

// recordRound folds a finished round into the metrics registry and the
// trace timeline. Called once per round, for committed and idle rounds
// alike.
func (s *Simulator) recordRound(rs *RoundStats) {
	if s.sc.RoundObserver != nil {
		s.sc.RoundObserver(*rs)
	}
	s.mRounds.Inc()
	if rs.Skipped {
		s.mSkipped.Inc()
	}
	s.mBytes.Add(rs.Bytes)
	s.mEnergy.Add(rs.Energy)
	s.mRoundEnergy.Set(rs.Energy)
	s.mParticipants.Set(float64(rs.Participants))
	s.mRoundTime.Observe(rs.Commit - rs.Start)
	if s.tr == nil {
		return
	}
	s.tr.Span(roundTrack, "round", "round", rs.Start, rs.Commit, map[string]any{
		"round": rs.Round, "participants": rs.Participants, "loss": rs.Loss,
		"energy": rs.Energy, "skipped": rs.Skipped,
	})
	s.tr.Instant(roundTrack, "round", "commit", rs.Commit,
		map[string]any{"round": rs.Round})
	if rs.Evaluated {
		s.tr.Instant(roundTrack, "round", "eval", rs.Commit,
			map[string]any{"round": rs.Round, "metric": rs.Metric})
	}
}

// Run simulates the scenario's rounds over the system, driving one training
// session of the given objective round by round, and returns the timeline.
// The objective supplies the task's training signal (only present devices
// contribute), its wire traffic, and the evaluation metric the timeline's
// Metric points carry (accuracy or AUC). A Simulator runs once: a second
// Run fails, because the first one spent its clock, fleet state and random
// streams — build a new Simulator for every run.
func (s *Simulator) Run(obj core.Objective) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Run called twice on one Simulator; build a new Simulator for each run")
	}
	sess, err := s.sys.NewSession(obj)
	if err != nil {
		return nil, err
	}
	if !sess.HasTestMetric() {
		// The final round always evaluates; reject up front rather than
		// failing after the rounds have been simulated.
		return nil, fmt.Errorf("sim: objective carries no test data to evaluate the timeline with")
	}
	s.ran = true
	n := s.sys.G.N
	gossip := s.sys.Cfg.Sched == core.SchedGossip
	s.scratch.init(n)
	var tm trainer = starTrainer{s: s, sess: sess}
	track := "aggregator"
	if gossip {
		tm, track = newGossipTrainer(s, sess), "gossip"
	}
	if s.tr != nil {
		s.tr.SetTrackName(roundTrack, track)
		for d := 0; d < n; d++ {
			s.tr.SetTrackName(d+1, fmt.Sprintf("device %d", d))
		}
	}
	res := &Result{Metric: sess.MetricName()}
	prev := 0.0
	for r := 0; r < s.sc.Rounds; r++ {
		rs := RoundStats{Round: r, Start: prev}

		// Churn: join/leave events land on the queue at the round boundary
		// and are processed in deterministic order.
		s.scheduleChurn(r, prev)
		s.drainBoundary(prev, &rs)
		for _, a := range s.avail {
			if a {
				rs.Available++
			}
		}

		// Partial participation: sample K of the available devices.
		participants := s.sample()
		rs.Participants = len(participants)
		present := s.scratch.present
		clear(present)
		for _, d := range participants {
			present[d] = true
		}
		evalRound := (s.sc.EvalEvery > 0 && (r+1)%s.sc.EvalEvery == 0) || r == s.sc.Rounds-1

		// Price the round on the virtual clock. Nothing training computes
		// feeds back into the clock, so the round is priced in full before
		// the model moves.
		var err error
		switch {
		case len(participants) == 0:
			// Nobody online: the fleet idles for one base interval.
			rs.Commit = prev + (s.sc.Cost.BaseCompute.Seconds() + s.sc.Cost.MsgLatency.Seconds())
		case gossip:
			rs.Commit, err = s.priceGossip(r, participants, prev, &rs)
		default:
			rs.Commit = s.priceStar(r, participants, prev, &rs)
		}
		if err == nil {
			err = tm.train(participants, evalRound, &rs)
		}
		if err == nil && evalRound {
			err = tm.evaluate(&rs)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: round %d: %w", r, err)
		}
		s.commits = append(s.commits, rs.Commit)
		prev = rs.Commit

		s.recordRound(&rs)
		res.Timeline = append(res.Timeline, rs)
		res.TotalBytes += rs.Bytes
		res.StaleApplied += rs.StaleApplied
		res.Dropped += rs.Dropped
		res.TotalEnergy += rs.Energy
	}
	if err := tm.finish(); err != nil {
		return nil, fmt.Errorf("sim: final model: %w", err)
	}
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

// A trainer is what a scheduling discipline does to the model; the rest of
// a round is Run's. Idle rounds train too: the star aggregator still applies
// due stale gradients in them.
type trainer interface {
	train(participants []int, evalRound bool, rs *RoundStats) error
	// evaluate records the round's test metric, and its validation metric
	// under model selection.
	evaluate(rs *RoundStats) error
	// finish installs the model the final metric is measured on.
	finish() error
}

// starTrainer trains the aggregator's one model: one Session.StepRound per
// round under the participation mask and the priced gradient delays. With
// nobody online the mask is all false and the engine takes its skip path —
// queued stale gradients come due and the partial caches age. Model
// selection happens inside StepRound (RoundPlan.Evaluate) and FinishRounds
// restores the best snapshot.
type starTrainer struct {
	s    *Simulator
	sess *core.Session
}

func (t starTrainer) train(_ []int, evalRound bool, rs *RoundStats) error {
	out, err := t.sess.StepRound(core.RoundPlan{
		Active: t.s.scratch.present, Delays: t.s.scratch.delay, TTL: t.s.sc.PartialTTL,
		Evaluate: evalRound && t.s.sc.ModelSelection,
	})
	if err != nil {
		return err
	}
	rs.Loss, rs.Skipped = out.Loss, out.Skipped
	rs.StaleApplied, rs.Dropped = out.StaleApplied, out.ExpiredParts
	rs.ValMetric, rs.ValEvaluated = out.ValMetric, out.ValEvaluated
	return nil
}

func (t starTrainer) evaluate(rs *RoundStats) error {
	m, err := t.sess.TestMetric()
	if err != nil {
		return fmt.Errorf("evaluation: %w", err)
	}
	rs.Metric, rs.Evaluated = m, true
	return nil
}

func (t starTrainer) finish() error {
	t.sess.FinishRounds()
	return nil
}

// roundScratch is the round loop's working memory, allocated once per run
// and overwritten every round, so a steady-state round allocates only what
// the engine step, the link servers and the event queue do.
type roundScratch struct {
	present []bool // this round's participants
	// end is when each participant's round work is done: its update served
	// at the aggregator (star), or its compute and every inbound delta
	// delivered (gossip). Valid for participants only.
	end []float64
	// delay is each device's gradient delay in rounds (star); sorted holds
	// the participants' delivery times in ascending order (async).
	delay  []int
	sorted []float64
	// Gossip: computeDone per participant; jobs and meta queue each live
	// link's deltas (keys: this round's live links, ascending), and emptied
	// slices stay in the maps for the next round.
	computeDone []float64
	jobs        map[[2]int][]fleet.Job
	meta        map[[2]int][]deltaMeta
	keys        [][2]int
}

func (sc *roundScratch) init(n int) {
	*sc = roundScratch{
		present:     make([]bool, n),
		end:         make([]float64, n),
		delay:       make([]int, n),
		computeDone: make([]float64, n),
		jobs:        make(map[[2]int][]fleet.Job),
		meta:        make(map[[2]int][]deltaMeta),
	}
}

// scheduleChurn pushes this round's join/leave events at the round boundary.
// Availability is decided per profile: a device with an availability cycle
// (Period > 0 — the periodic fleet, or traced devices that carry one)
// transitions with its cycle; every other device draws exactly one Bernoulli
// churn decision per round, so the availability process is identical across
// scheduling modes and participation rates.
func (s *Simulator) scheduleChurn(r int, at float64) {
	for d, p := range s.profiles {
		if p.Period > 0 {
			if on := p.OnlineAt(r); on != s.avail[d] {
				kind := evLeave
				if on {
					kind = evJoin
				}
				s.push(kind, at, d, r)
			}
			continue
		}
		if r == 0 {
			continue // cycle-free devices start online
		}
		u := s.churnRng.Float64()
		if s.avail[d] {
			if u < s.sc.Churn {
				s.push(evLeave, at, d, r)
			}
		} else if u < s.sc.Rejoin {
			s.push(evJoin, at, d, r)
		}
	}
}

// drainBoundary processes the join/leave events due at the round boundary.
func (s *Simulator) drainBoundary(now float64, rs *RoundStats) {
	for s.q.Len() > 0 && s.q[0].at <= now {
		e := s.q.pop()
		switch e.kind {
		case evLeave:
			if s.avail[e.device] {
				s.avail[e.device] = false
				s.lag[e.device] = 0 // any in-flight lag resets; rejoin pays catch-up
				rs.Left++
			}
		case evJoin:
			if !s.avail[e.device] {
				s.avail[e.device] = true
				rs.Joined++
			}
		}
	}
}

// priceStar prices one star round on the virtual clock and returns its
// commit time: compute-done and upload events per participant, delivery
// through the aggregator's shared link, the commit rule, and the model
// broadcast. It charges the round's bytes and energy and leaves the
// participants' gradient delays in the scratch for the trainer.
func (s *Simulator) priceStar(r int, participants []int, prev float64, rs *RoundStats) float64 {
	// Under sync every participant waits for the latest model (the previous
	// commit); under bounded staleness a device may start from any model at
	// most `bound` commits old, so fast devices pipeline.
	bound := s.sys.Cfg.Staleness
	modelReady := prev
	if s.sys.Cfg.Sched == core.SchedAsync {
		modelReady = 0
		if idx := r - 1 - bound; idx >= 0 {
			modelReady = s.commits[idx]
		}
	}
	for _, d := range participants {
		start := s.freeAt[d]
		if start < modelReady {
			start = modelReady
		}
		// Staleness-bounded catch-up: a device away longer than the lag
		// budget re-downloads the model before it can compute.
		gap := r + 1
		if s.lastPart[d] >= 0 {
			gap = r - s.lastPart[d]
		}
		radioBytes := s.up[d] + s.model // upload + post-commit broadcast
		if gap > bound+1 {
			// The re-download's model bytes cross the shared aggregator
			// link like any other traffic: the download is served (and
			// occupies the server) before the device's own link time.
			caught := s.agg.Serve(start, s.model) + s.downTime(d)
			if s.tr != nil {
				s.tr.Span(d+1, "device", "catch-up", start, caught,
					map[string]any{"round": r})
			}
			start = caught
			rs.CatchUps++
			radioBytes += s.model // catch-up re-download
		}
		ct := s.computeTime(d)
		if s.tr != nil {
			s.tr.Span(d+1, "device", "compute", start, start+ct,
				map[string]any{"round": r})
		}
		s.push(evComputeDone, start+ct, d, r)
		// Energy: active compute at the profile-scaled power draw plus
		// every byte this device moves over its radio this round.
		e := s.sc.Cost.Energy(ct, s.profiles[d].Power, radioBytes)
		s.energy[d] += e
		rs.Energy += e
	}
	s.drainRound()
	commit := s.commitRound(r, participants, prev, rs)

	// Downlink contention: the post-commit model broadcast to every
	// participant serializes through the shared aggregator link, so the
	// round is not over — and the next model not ready — until the last
	// copy is out. The server is FIFO: under async it may still be serving
	// straggler uploads past the quorum commit, and the broadcast queues
	// behind them. With contention disabled Serve is a pass-through,
	// matching the independent-link model.
	preBroadcast := commit
	commit = s.agg.Serve(commit, int64(len(participants))*s.model)
	if s.tr != nil && commit > preBroadcast {
		s.tr.Span(roundTrack, "agg", "broadcast", preBroadcast, commit,
			map[string]any{"round": r, "participants": len(participants)})
	}

	for _, d := range participants {
		rs.Bytes += s.up[d]
	}
	// Downlink: the post-aggregation model broadcast to every participant,
	// plus the catch-up re-downloads already charged to the timing model.
	rs.Bytes += int64(len(participants)+rs.CatchUps) * s.model
	return commit
}

// drainRound runs the virtual clock until every in-flight compute and
// message event has fired, recording each participant's arrival time. An
// arrival marks the update reaching the aggregator's ingress over the
// device's own link; with contention enabled it must then be served by the
// shared M/G/1-style server — updates queue behind each other (FIFO in
// deterministic event order) — before it counts as delivered (scratch.end).
func (s *Simulator) drainRound() {
	for s.q.Len() > 0 {
		e := s.q.pop()
		switch e.kind {
		case evComputeDone:
			arrive := e.at + s.xferTime(e.device)
			if s.tr != nil {
				s.tr.Span(e.device+1, "device", "upload", e.at, arrive,
					map[string]any{"round": e.round})
			}
			s.push(evArrival, arrive, e.device, e.round)
		case evArrival:
			served := s.agg.Serve(e.at, s.up[e.device])
			if s.tr != nil && served > e.at {
				// Queueing plus service at the shared aggregator link — the
				// contention the M/G/1 server models.
				s.tr.Span(e.device+1, "device", "agg-serve", e.at, served,
					map[string]any{"round": e.round})
			}
			s.scratch.end[e.device] = served
		}
	}
}

// sample draws this round's participants: ⌈Participation · eligible⌉
// devices, chosen by a seeded permutation, returned in ascending id order.
// Under PolicyEnergy the eligible pool first drops every device whose
// projected per-round energy exceeds the budget; the filter happens before
// any RNG draw, so PolicyUniform runs consume the sample stream exactly as
// they always did (the frozen goldens depend on that).
func (s *Simulator) sample() []int {
	ids := make([]int, 0, len(s.avail))
	for d, a := range s.avail {
		if a {
			ids = append(ids, d)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	if s.sc.Policy == PolicyEnergy {
		kept := ids[:0]
		cheapest := ids[0]
		for _, d := range ids {
			if s.projected[d] < s.projected[cheapest] {
				cheapest = d // ties keep the lowest id
			}
			if s.projected[d] <= s.budget {
				kept = append(kept, d)
			}
		}
		if len(kept) == 0 {
			// An over-budget fleet still trains: the single cheapest
			// available device participates rather than stalling the run.
			kept = append(kept, cheapest)
		}
		ids = kept
	}
	k := int(math.Ceil(s.sc.Participation * float64(len(ids))))
	if k < 1 {
		k = 1
	}
	if k > len(ids) {
		k = len(ids)
	}
	perm := s.sampleRng.Perm(len(ids))
	chosen := make([]int, 0, k)
	for _, p := range perm[:k] {
		chosen = append(chosen, ids[p])
	}
	sort.Ints(chosen)
	return chosen
}

// commitRound closes round r: under sync the commit is a barrier on the
// slowest participant; under async the aggregator commits once half the
// participants have delivered, plus every straggler whose lag budget is
// spent (lag == staleness bound) — bounding staleness exactly as the
// engine's delayed-gradient queue assumes. Returns the commit time and
// leaves the per-device gradient delays (in rounds) in scratch.delay.
func (s *Simulator) commitRound(r int, participants []int, prev float64, rs *RoundStats) float64 {
	arr, delay := s.scratch.end, s.scratch.delay
	clear(delay)
	commit := prev
	if s.sys.Cfg.Sched == core.SchedSync {
		for _, d := range participants {
			if arr[d] > commit {
				commit = arr[d]
			}
			s.lag[d] = 0
		}
	} else {
		bound := s.sys.Cfg.Staleness
		sorted := s.scratch.sorted[:0]
		for _, d := range participants {
			sorted = append(sorted, arr[d])
		}
		sort.Float64s(sorted)
		s.scratch.sorted = sorted
		if t := sorted[(len(sorted)+1)/2-1]; t > commit {
			commit = t
		}
		for _, d := range participants {
			if s.lag[d] >= bound && arr[d] > commit {
				commit = arr[d]
			}
		}
		for _, d := range participants {
			if arr[d] <= commit {
				s.lag[d] = 0
				continue
			}
			s.lag[d]++
			if s.lag[d] > bound {
				s.lag[d] = bound
			}
			delay[d] = s.lag[d]
			rs.Late++
		}
	}
	for _, d := range participants {
		s.freeAt[d] = arr[d]
		s.lastPart[d] = r
	}
	return commit
}

// computeTime is device d's local forward/backward time in seconds: the
// analytic cost model's per-epoch compute term scaled by the profile.
func (s *Simulator) computeTime(d int) float64 {
	c := s.sc.Cost
	t := c.BaseCompute.Seconds() + float64(s.wl[d])*c.PerLeafPair.Seconds()
	return t * s.profiles[d].Compute
}

// xferTime is device d's update-delivery time in seconds: link latency plus
// its upload bytes over its share of bandwidth.
func (s *Simulator) xferTime(d int) float64 {
	c := s.sc.Cost
	return c.MsgLatency.Seconds()*s.profiles[d].Latency +
		float64(s.up[d])/(c.BytesPerSecond*s.profiles[d].Bandwidth)
}

// downTime is the model re-download a rejoining device pays to catch up.
func (s *Simulator) downTime(d int) float64 {
	c := s.sc.Cost
	return c.MsgLatency.Seconds()*s.profiles[d].Latency +
		float64(s.model)/(c.BytesPerSecond*s.profiles[d].Bandwidth)
}

// push schedules an event on the virtual clock.
func (s *Simulator) push(kind eventKind, at float64, device, round int) {
	s.seq++
	s.q.push(event{at: at, seq: s.seq, kind: kind, device: device, round: round})
}
