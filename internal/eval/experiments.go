package eval

import (
	"fmt"
	"time"

	"lumos/internal/balance"
	"lumos/internal/baselines"
	"lumos/internal/core"
	"lumos/internal/fed"
	"lumos/internal/metrics"
)

// ---------------------------------------------------------------------------
// Fig. 3: supervised label-classification accuracy
// ---------------------------------------------------------------------------

// Fig3Result is one dataset×backbone group of Fig. 3's bars.
type Fig3Result struct {
	Dataset     string
	Backbone    string
	Lumos       float64
	Centralized float64
	LPGNN       float64
	NaiveFed    float64
}

// RunFig3 reproduces Fig. 3: Lumos vs Centralized GNN vs LPGNN vs Naive
// FedGNN on label classification, for every configured dataset and backbone.
func RunFig3(opts Options) ([]Fig3Result, error) {
	var out []Fig3Result
	err := opts.forEach(func(d *dataset) error {
		split, err := d.nodeSplit()
		if err != nil {
			return err
		}
		for _, bb := range opts.Backbones {
			r := Fig3Result{Dataset: d.name, Backbone: bb.String()}
			if r.Lumos, _, err = d.lumos(opts.config(core.Supervised, bb)); err != nil {
				return err
			}

			mc := baselines.ModelConfig{Backbone: bb, Epochs: opts.Epochs, Seed: opts.Seed}
			cen, err := baselines.NewCentralized(d.g, mc)
			if err != nil {
				return err
			}
			cen.TrainSupervised(split)
			if r.Centralized, err = cen.EvaluateAccuracy(split.IsTest); err != nil {
				return err
			}

			lp, err := baselines.NewLPGNN(d.g, baselines.LPGNNConfig{
				ModelConfig: mc, EpsX: opts.Epsilon, EpsY: 1,
			})
			if err != nil {
				return err
			}
			lp.TrainSupervised(split)
			if r.LPGNN, err = lp.EvaluateAccuracy(split.IsTest); err != nil {
				return err
			}

			nf, err := baselines.NewNaiveFed(d.g, baselines.NaiveFedConfig{
				ModelConfig: mc, EpsFeature: opts.Epsilon, EpsEdge: opts.Epsilon, EpsLabel: opts.Epsilon,
			})
			if err != nil {
				return err
			}
			if _, err := nf.TrainSupervised(split); err != nil {
				return err
			}
			if r.NaiveFed, err = nf.EvaluateAccuracy(split.IsTest); err != nil {
				return err
			}
			out = append(out, r)
		}
		return nil
	})
	return out, err
}

// Fig3Table renders Fig. 3 results.
func Fig3Table(rs []Fig3Result) *Table {
	t := &Table{
		Title:   "Fig.3: Label classification accuracy",
		Columns: []string{"dataset", "backbone", "Lumos", "Centralized", "LPGNN", "NaiveFedGNN"},
	}
	for _, r := range rs {
		t.AddRow(r.Dataset, r.Backbone, r.Lumos, r.Centralized, r.LPGNN, r.NaiveFed)
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 4: unsupervised link-prediction ROC-AUC
// ---------------------------------------------------------------------------

// Fig4Result is one dataset×backbone group of Fig. 4's bars.
type Fig4Result struct {
	Dataset     string
	Backbone    string
	Lumos       float64
	Centralized float64
	NaiveFed    float64
}

// RunFig4 reproduces Fig. 4: link-prediction ROC-AUC for Lumos, the
// centralized GNN, and Naive FedGNN (LPGNN is supervised-only, as in the
// paper).
func RunFig4(opts Options) ([]Fig4Result, error) {
	var out []Fig4Result
	err := opts.forEach(func(d *dataset) error {
		es, err := d.edgeSplit()
		if err != nil {
			return err
		}
		for _, bb := range opts.Backbones {
			r := Fig4Result{Dataset: d.name, Backbone: bb.String()}
			if r.Lumos, _, err = d.lumos(opts.config(core.Unsupervised, bb)); err != nil {
				return err
			}

			mc := baselines.ModelConfig{Backbone: bb, Epochs: opts.Epochs, Seed: opts.Seed}
			cen, err := baselines.NewCentralizedLink(d.g, es, mc)
			if err != nil {
				return err
			}
			cen.Train()
			if r.Centralized, err = cen.EvaluateAUC(); err != nil {
				return err
			}

			nf, err := baselines.NewNaiveFed(es.TrainGraph, baselines.NaiveFedConfig{
				ModelConfig: mc, EpsFeature: opts.Epsilon, EpsEdge: opts.Epsilon, EpsLabel: opts.Epsilon,
			})
			if err != nil {
				return err
			}
			nf.TrainLink(es.Val, es.ValNeg)
			if r.NaiveFed, err = nf.EvaluateAUC(es.Test, es.TestNeg); err != nil {
				return err
			}
			out = append(out, r)
		}
		return nil
	})
	return out, err
}

// Fig4Table renders Fig. 4 results.
func Fig4Table(rs []Fig4Result) *Table {
	t := &Table{
		Title:   "Fig.4: Link prediction ROC-AUC",
		Columns: []string{"dataset", "backbone", "Lumos", "Centralized", "NaiveFedGNN"},
	}
	for _, r := range rs {
		t.AddRow(r.Dataset, r.Backbone, r.Lumos, r.Centralized, r.NaiveFed)
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 5: sensitivity to the privacy parameter ε
// ---------------------------------------------------------------------------

// Fig5Epsilons are the budgets swept in the paper.
var Fig5Epsilons = []float64{0.5, 1, 2, 4}

// Fig5Result is one curve point of Fig. 5. The default Lumos pipeline
// bounds the LDP noise with local row normalization, which largely
// decouples accuracy from ε on the synthetic substrate (the un-noised
// own-feature path carries most of the signal); AccuracyRaw/AUCRaw use the
// paper-literal pipeline (unbiased Eq. 27 recovery, no normalization),
// which reproduces the paper's strongly monotone ε curves.
type Fig5Result struct {
	Dataset  string
	Epsilon  float64
	Accuracy float64 // supervised (Fig. 5a), default pipeline
	AUC      float64 // unsupervised (Fig. 5b), default pipeline
	// Paper-literal pipeline (DisableRowNorm).
	AccuracyRaw float64
	AUCRaw      float64
}

// RunFig5 reproduces Fig. 5: Lumos accuracy and AUC as ε varies, using the
// first configured backbone (the paper sweeps with a single backbone).
func RunFig5(opts Options) ([]Fig5Result, error) {
	var out []Fig5Result
	err := opts.forEach(func(d *dataset) error {
		for _, eps := range Fig5Epsilons {
			r := Fig5Result{Dataset: d.name, Epsilon: eps}
			for _, raw := range []bool{false, true} {
				sup := opts.config(core.Supervised, opts.Backbones[0])
				sup.Epsilon, sup.DisableRowNorm = eps, raw
				acc, _, err := d.lumos(sup)
				if err != nil {
					return err
				}
				uns := sup
				uns.Task = core.Unsupervised
				auc, _, err := d.lumos(uns)
				if err != nil {
					return err
				}
				if raw {
					r.AccuracyRaw, r.AUCRaw = acc, auc
				} else {
					r.Accuracy, r.AUC = acc, auc
				}
			}
			out = append(out, r)
		}
		return nil
	})
	return out, err
}

// Fig5Table renders Fig. 5 results.
func Fig5Table(rs []Fig5Result) *Table {
	t := &Table{
		Title:   "Fig.5: Effect of privacy parameter epsilon (Lumos; raw = paper-literal Eq.27 recovery)",
		Columns: []string{"dataset", "epsilon", "accuracy", "auc", "accuracy(raw)", "auc(raw)"},
	}
	for _, r := range rs {
		t.AddRow(r.Dataset, fmt.Sprintf("%.1f", r.Epsilon), r.Accuracy, r.AUC, r.AccuracyRaw, r.AUCRaw)
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 6: ablation study (virtual nodes, tree trimming)
// ---------------------------------------------------------------------------

// Fig6Result is one dataset×backbone group of Fig. 6.
type Fig6Result struct {
	Dataset  string
	Backbone string
	// Supervised accuracies.
	Acc, AccNoVN, AccNoTT float64
	// Unsupervised AUCs.
	AUC, AUCNoVN, AUCNoTT float64
}

// RunFig6 reproduces Fig. 6: Lumos vs Lumos w.o. virtual nodes vs Lumos
// w.o. tree trimming, in both learning modes.
func RunFig6(opts Options) ([]Fig6Result, error) {
	var out []Fig6Result
	err := opts.forEach(func(d *dataset) error {
		for _, bb := range opts.Backbones {
			r := Fig6Result{Dataset: d.name, Backbone: bb.String()}
			// The full model, then without virtual nodes, then without tree
			// trimming, each in both learning modes.
			for _, v := range []struct {
				noVN, noTT bool
				acc, auc   *float64
			}{
				{false, false, &r.Acc, &r.AUC},
				{true, false, &r.AccNoVN, &r.AUCNoVN},
				{false, true, &r.AccNoTT, &r.AUCNoTT},
			} {
				cfg := opts.config(core.Supervised, bb)
				cfg.DisableVirtualNodes, cfg.DisableTreeTrimming = v.noVN, v.noTT
				var err error
				if *v.acc, _, err = d.lumos(cfg); err != nil {
					return err
				}
				cfg.Task = core.Unsupervised
				if *v.auc, _, err = d.lumos(cfg); err != nil {
					return err
				}
			}
			out = append(out, r)
		}
		return nil
	})
	return out, err
}

// Fig6Table renders Fig. 6 results.
func Fig6Table(rs []Fig6Result) *Table {
	t := &Table{
		Title:   "Fig.6: Ablation (VN = virtual nodes, TT = tree trimming)",
		Columns: []string{"dataset", "backbone", "acc", "acc w.o.VN", "acc w.o.TT", "auc", "auc w.o.VN", "auc w.o.TT"},
	}
	for _, r := range rs {
		t.AddRow(r.Dataset, r.Backbone, r.Acc, r.AccNoVN, r.AccNoTT, r.AUC, r.AUCNoVN, r.AUCNoTT)
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 7: workload CDF with and without tree trimming
// ---------------------------------------------------------------------------

// Fig7Result summarizes the workload distribution for one dataset.
type Fig7Result struct {
	Dataset                string
	TrimmedP50, TrimmedP90 int
	TrimmedP99, TrimmedMax int
	RawP50, RawP90         int
	RawP99, RawMax         int
	// CDFs carry the full curves for plotting.
	Trimmed, Raw *metrics.CDF
}

// RunFig7 reproduces Fig. 7: the per-device workload distribution with and
// without tree trimming (without trimming the workload is the degree).
func RunFig7(opts Options) ([]Fig7Result, error) {
	var out []Fig7Result
	err := opts.forEach(func(d *dataset) error {
		devices := fed.NewDevices(d.g, opts.Seed)
		server := fed.NewServer(opts.Seed)
		res, err := balance.Balance(d.g, devices, server, balance.Config{
			Iterations: opts.MCMCIterations,
			Secure:     opts.SecureCompare,
			Seed:       opts.Seed,
		})
		if err != nil {
			return err
		}
		raw := balance.WithoutTrimming(d.g)
		tc := metrics.NewCDF(res.Workloads)
		rc := metrics.NewCDF(raw.Workloads)
		out = append(out, Fig7Result{
			Dataset:    d.name,
			TrimmedP50: tc.Quantile(0.5), TrimmedP90: tc.Quantile(0.9),
			TrimmedP99: tc.Quantile(0.99), TrimmedMax: tc.Max(),
			RawP50: rc.Quantile(0.5), RawP90: rc.Quantile(0.9),
			RawP99: rc.Quantile(0.99), RawMax: rc.Max(),
			Trimmed: tc, Raw: rc,
		})
		return nil
	})
	return out, err
}

// Fig7Table renders Fig. 7 quantiles.
func Fig7Table(rs []Fig7Result) *Table {
	t := &Table{
		Title:   "Fig.7: Workload CDF with (Lumos) and without (w.o.TT) tree trimming",
		Columns: []string{"dataset", "variant", "p50", "p90", "p99", "max"},
	}
	for _, r := range rs {
		t.AddRow(r.Dataset, "Lumos", r.TrimmedP50, r.TrimmedP90, r.TrimmedP99, r.TrimmedMax)
		t.AddRow(r.Dataset, "w.o.TT", r.RawP50, r.RawP90, r.RawP99, r.RawMax)
	}
	return t
}

// Fig7CDFTable renders the full CDF curves (one row per distinct workload
// value) for external plotting.
func Fig7CDFTable(rs []Fig7Result) *Table {
	t := &Table{
		Title:   "Fig.7: workload CDF points",
		Columns: []string{"dataset", "variant", "workload", "cum_prob"},
	}
	for _, r := range rs {
		xs, ps := r.Trimmed.Points()
		for i := range xs {
			t.AddRow(r.Dataset, "Lumos", xs[i], ps[i])
		}
		xs, ps = r.Raw.Points()
		for i := range xs {
			t.AddRow(r.Dataset, "w.o.TT", xs[i], ps[i])
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 8: system cost with and without tree trimming
// ---------------------------------------------------------------------------

// Fig8Result is one dataset×task row of Fig. 8.
type Fig8Result struct {
	Dataset string
	Task    string
	// Fig. 8a: average communication rounds per device per epoch.
	CommTrimmed, CommRaw float64
	CommSavings          float64 // fraction
	// Fig. 8b: estimated (straggler-dominated) epoch time.
	TimeTrimmed, TimeRaw time.Duration
	TimeSavings          float64 // fraction
	// Measured wall-clock per epoch of the in-process simulation.
	MeasuredTrimmed, MeasuredRaw time.Duration
}

// RunFig8 reproduces Fig. 8: communication rounds per device per epoch
// (8a) and per-epoch training time (8b), with and without tree trimming,
// for both learning modes, using the first configured backbone.
func RunFig8(opts Options) ([]Fig8Result, error) {
	var out []Fig8Result
	err := opts.forEach(func(d *dataset) error {
		for _, task := range []core.Task{core.Supervised, core.Unsupervised} {
			r := Fig8Result{Dataset: d.name, Task: task.String()}
			for _, noTT := range []bool{false, true} {
				cfg := opts.config(task, opts.Backbones[0])
				cfg.DisableTreeTrimming = noTT
				_, stats, err := d.lumos(cfg)
				if err != nil {
					return err
				}
				perEpoch := stats.MeasuredTime / time.Duration(opts.Epochs)
				if noTT {
					r.CommRaw = stats.AvgCommRoundsPerDevice
					r.TimeRaw = stats.SimEpochTime
					r.MeasuredRaw = perEpoch
				} else {
					r.CommTrimmed = stats.AvgCommRoundsPerDevice
					r.TimeTrimmed = stats.SimEpochTime
					r.MeasuredTrimmed = perEpoch
				}
			}
			r.CommSavings = 1 - r.CommTrimmed/r.CommRaw
			r.TimeSavings = 1 - float64(r.TimeTrimmed)/float64(r.TimeRaw)
			out = append(out, r)
		}
		return nil
	})
	return out, err
}

// Fig8Table renders Fig. 8 results.
func Fig8Table(rs []Fig8Result) *Table {
	t := &Table{
		Title:   "Fig.8: System cost with/without tree trimming (TT)",
		Columns: []string{"dataset", "task", "comm/dev TT", "comm/dev w.o.TT", "comm saved", "epoch TT", "epoch w.o.TT", "time saved"},
	}
	for _, r := range rs {
		t.AddRow(r.Dataset, r.Task,
			fmt.Sprintf("%.1f", r.CommTrimmed), fmt.Sprintf("%.1f", r.CommRaw),
			fmt.Sprintf("%.1f%%", 100*r.CommSavings),
			r.TimeTrimmed.Round(time.Millisecond).String(), r.TimeRaw.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", 100*r.TimeSavings))
	}
	return t
}

// ---------------------------------------------------------------------------
// Headline claims (§I)
// ---------------------------------------------------------------------------

// HeadlineResult aggregates the three §I claims: Lumos vs the federated
// baseline (Naive FedGNN) accuracy increase, and tree trimming's reduction
// of communication rounds and training time.
type HeadlineResult struct {
	AccuracyIncrease float64 // paper: +39.48% (relative, vs federated baseline)
	CommReduction    float64 // paper: −35.16%
	TimeReduction    float64 // paper: −17.74%
}

// RunHeadline computes the §I claims from Fig. 3 and Fig. 8 runs.
func RunHeadline(opts Options) (*HeadlineResult, []Fig3Result, []Fig8Result, error) {
	f3, err := RunFig3(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	f8, err := RunFig8(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	h := &HeadlineResult{}
	var accs, comms, times []float64
	for _, r := range f3 {
		accs = append(accs, metrics.RelChange(r.Lumos, r.NaiveFed))
	}
	for _, r := range f8 {
		comms = append(comms, 1-r.CommTrimmed/r.CommRaw)
		times = append(times, r.TimeSavings)
	}
	h.AccuracyIncrease = metrics.Mean(accs)
	h.CommReduction = metrics.Mean(comms)
	h.TimeReduction = metrics.Mean(times)
	return h, f3, f8, nil
}

// HeadlineTable renders the headline claims against the paper's numbers.
func HeadlineTable(h *HeadlineResult) *Table {
	t := &Table{
		Title:   "Headline claims (paper §I)",
		Columns: []string{"claim", "paper", "measured"},
	}
	t.AddRow("accuracy increase vs federated baseline", "+39.48%", fmt.Sprintf("%+.2f%%", 100*h.AccuracyIncrease))
	t.AddRow("inter-device communication reduction", "-35.16%", fmt.Sprintf("-%.2f%%", 100*h.CommReduction))
	t.AddRow("training time reduction", "-17.74%", fmt.Sprintf("-%.2f%%", 100*h.TimeReduction))
	return t
}
