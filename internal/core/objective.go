package core

import (
	"fmt"
	"math/rand"
	"slices"

	"lumos/internal/autodiff"
	"lumos/internal/graph"
)

// An Objective encapsulates everything task-specific about a training
// session: how the scalar loss is built from the pooled per-vertex
// embeddings, the per-epoch RNG-driven sampling that feeds it, the
// validation/test metric used for model selection and timelines, and the
// wire-traffic the task exchanges each step (including negative-sampling
// fetches). Everything else — sharded forward/backward, gradient
// aggregation, scheduling, partial participation — is task-agnostic and
// lives in the engine, so any surface that drives a Session (the epoch
// trainers, the discrete-event simulator, the eval timelines) works for
// every objective.
//
// Objectives are constructed by NewSupervisedObjective and
// NewUnsupervisedObjective and consumed by System.NewSession. The interface
// is sealed (its working methods are unexported): implementations need the
// system's internals, and keeping construction here is what guarantees the
// bit-determinism contracts the engine tests pin down.
type Objective interface {
	// Task reports which Config.Task the objective trains; NewSession
	// rejects an objective whose task differs from the system's.
	Task() Task
	// MetricName names the objective's evaluation metric as it should
	// appear in tables and timelines ("accuracy" or "AUC").
	MetricName() string

	// bind attaches the objective to an assembled system at session
	// creation and validates the fit (split shape, labels, …). An
	// objective serves one system at a time; binding it to a second,
	// different system is an error.
	bind(s *System) error
	// begin prepares one step restricted to the active devices (nil =
	// everyone): rebuilds loss weights, draws this step's RNG-driven
	// samples. usable reports whether the step carries any training
	// signal; an unusable step is skipped by the session.
	begin(active []bool) (usable bool)
	// lossRows names the vertices whose pooled rows the step prepared by
	// begin reads, ascending; nil means all N. The engine combines only
	// those rows, so a step costs what its loss reads, not N rows per step.
	lossRows() []int
	// loss builds the scalar task loss from the pooled embeddings of the
	// lossRows vertices (row j is vertex lossRows()[j]; all N rows, in
	// vertex order, when lossRows is nil).
	loss(pooled *autodiff.Value) *autodiff.Value
	// account records the step's wire traffic on the system's network
	// fabric for the active devices (nil = everyone).
	account(active []bool)
	// valMetric computes the validation metric for model selection
	// (higher is better); ok reports whether validation data exists.
	valMetric() (metric float64, ok bool, err error)
	// hasTestMetric reports whether the objective carries test data, i.e.
	// whether testMetric can succeed. Runners that evaluate on a schedule
	// (the simulator) check it up front instead of failing mid-run.
	hasTestMetric() bool
	// testMetric computes the test-side metric reported by timelines.
	testMetric() (float64, error)
}

// supervisedObjective is node classification (paper §VI-C a): every active
// device with a training vertex contributes its local cross-entropy; labels
// never leave the device. A step reads only those devices' pooled rows.
type supervisedObjective struct {
	sys   *System
	split *graph.NodeSplit
	train []int // split.Train, ascending
	// rows and labels are the step's active training vertices (ascending)
	// and their labels, rebuilt each step.
	rows, labels []int
}

// NewSupervisedObjective builds the node-classification objective over a
// train/val/test vertex split. Validation vertices (when present) drive
// model selection; test vertices drive timeline accuracy points.
func NewSupervisedObjective(split *graph.NodeSplit) Objective {
	return &supervisedObjective{split: split}
}

func (o *supervisedObjective) Task() Task         { return Supervised }
func (o *supervisedObjective) MetricName() string { return "accuracy" }

func (o *supervisedObjective) bind(s *System) error {
	if o.sys != nil && o.sys != s {
		return fmt.Errorf("core: objective already bound to another system")
	}
	if o.split == nil {
		return fmt.Errorf("core: nil node split")
	}
	if len(o.split.IsTrain) != s.G.N {
		return fmt.Errorf("core: node split over %d vertices for %d devices", len(o.split.IsTrain), s.G.N)
	}
	o.sys = s
	o.train = slices.Sorted(slices.Values(o.split.Train))
	return nil
}

func (o *supervisedObjective) begin(active []bool) bool {
	o.rows, o.labels = o.rows[:0], o.labels[:0]
	for _, v := range o.train {
		if active == nil || active[v] {
			o.rows = append(o.rows, v)
			o.labels = append(o.labels, o.sys.G.Labels[v])
		}
	}
	return len(o.rows) > 0
}

func (o *supervisedObjective) lossRows() []int { return o.rows }

// loss is the mean cross-entropy over the step's rows — the same value, bit
// for bit, as the CE over all N rows weighted 1 on those vertices and 0
// elsewhere, since CE skips zero-weight rows and sums the rest in order.
func (o *supervisedObjective) loss(pooled *autodiff.Value) *autodiff.Value {
	logits := o.sys.Head.Forward(pooled)
	return autodiff.SoftmaxCrossEntropy(logits, o.labels, nil)
}

func (o *supervisedObjective) account(active []bool) {
	o.sys.accountEpochTraffic(active)
}

func (o *supervisedObjective) valMetric() (float64, bool, error) {
	if len(o.split.Val) == 0 {
		return 0, false, nil
	}
	m, err := o.sys.EvaluateAccuracy(o.split.IsVal)
	return m, true, err
}

func (o *supervisedObjective) hasTestMetric() bool { return len(o.split.Test) > 0 }

func (o *supervisedObjective) testMetric() (float64, error) {
	return o.sys.EvaluateAccuracy(o.split.IsTest)
}

// unsupervisedObjective is link prediction with negative sampling (paper
// §VI-C b, Eq. 33): every active device contributes logistic terms for its
// retained-neighbor pairs plus NegPerPos locally rejected negatives per
// positive, drawn fresh each step from the device's private RNG. Its steps
// read all N pooled rows (lossRows is nil): at full participation the
// sampled pairs touch most vertices, and scoring them against the full
// matrix keeps PairDot's indices global.
type unsupervisedObjective struct {
	sys *System
	val *graph.EdgeSplit // may be nil: no validation/test edges
	// Pair buffers are pooled across steps: begin re-fills them in place,
	// so steady-state sampling allocates nothing once capacity is reached.
	idxU, idxV []int
	ys         []float64
	negCount   int
}

// NewUnsupervisedObjective builds the link-prediction objective. val may be
// nil; when present, its validation edges drive model selection and its
// test edges drive timeline AUC points.
func NewUnsupervisedObjective(val *graph.EdgeSplit) Objective {
	return &unsupervisedObjective{val: val}
}

func (o *unsupervisedObjective) Task() Task         { return Unsupervised }
func (o *unsupervisedObjective) MetricName() string { return "AUC" }

func (o *unsupervisedObjective) bind(s *System) error {
	if o.sys != nil && o.sys != s {
		return fmt.Errorf("core: objective already bound to another system")
	}
	if o.val != nil {
		// The split must come from this system's graph: a mismatched one
		// would train fine and then panic deep inside evaluation.
		if o.val.TrainGraph != nil && o.val.TrainGraph.N != s.G.N {
			return fmt.Errorf("core: edge split over %d vertices for %d devices", o.val.TrainGraph.N, s.G.N)
		}
		for _, set := range [][][2]int{o.val.Val, o.val.ValNeg, o.val.Test, o.val.TestNeg} {
			for _, e := range set {
				if e[0] < 0 || e[0] >= s.G.N || e[1] < 0 || e[1] >= s.G.N {
					return fmt.Errorf("core: edge split endpoint %v outside %d devices", e, s.G.N)
				}
			}
		}
	}
	o.sys = s
	return nil
}

func (o *unsupervisedObjective) begin(active []bool) bool {
	o.idxU, o.idxV, o.ys, o.negCount = o.sys.samplePairs(o.idxU[:0], o.idxV[:0], o.ys[:0], active)
	return len(o.idxU) > 0
}

func (o *unsupervisedObjective) lossRows() []int { return nil }

func (o *unsupervisedObjective) loss(pooled *autodiff.Value) *autodiff.Value {
	scores := autodiff.PairDot(pooled, o.idxU, o.idxV)
	return autodiff.LogisticLoss(scores, o.ys)
}

func (o *unsupervisedObjective) account(active []bool) {
	o.sys.accountEpochTraffic(active)
	o.sys.accountNegSampling(o.negCount)
}

func (o *unsupervisedObjective) valMetric() (float64, bool, error) {
	if o.val == nil || len(o.val.Val) == 0 {
		return 0, false, nil
	}
	m, err := o.sys.EvaluateAUC(o.val.Val, o.val.ValNeg)
	return m, true, err
}

func (o *unsupervisedObjective) hasTestMetric() bool {
	return o.val != nil && len(o.val.Test) > 0
}

func (o *unsupervisedObjective) testMetric() (float64, error) {
	if !o.hasTestMetric() {
		return 0, fmt.Errorf("core: unsupervised objective has no test edges")
	}
	return o.sys.EvaluateAUC(o.val.Test, o.val.TestNeg)
}

// SplitForTask draws the paper's default split for the task over g (nodes
// 50/25/25 supervised, edges 80/5/15 unsupervised) and returns the graph to
// train on (g itself, or the training-edge subgraph) together with a
// factory for fresh objectives over that split — an objective binds to one
// system, so every system a runner builds needs its own. This is the shared
// task switch behind eval.RunSimTimeline and the lumos-sim CLI; new
// objectives plug into both by extending it here once.
func SplitForTask(g *graph.Graph, task Task, rng *rand.Rand) (*graph.Graph, func() Objective, error) {
	switch task {
	case Supervised:
		split, err := graph.SplitNodes(g, 0.5, 0.25, rng)
		if err != nil {
			return nil, nil, err
		}
		return g, func() Objective { return NewSupervisedObjective(split) }, nil
	case Unsupervised:
		es, err := graph.SplitEdges(g, 0.8, 0.05, rng)
		if err != nil {
			return nil, nil, err
		}
		return es.TrainGraph, func() Objective { return NewUnsupervisedObjective(es) }, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown task %v", task)
	}
}
