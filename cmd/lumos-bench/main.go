// Command lumos-bench regenerates the paper's evaluation artifacts
// (Figs. 3–8 and the §I headline claims) and prints them as aligned tables
// or CSV.
//
// Usage:
//
//	lumos-bench -exp fig3                 # one experiment
//	lumos-bench -exp all -epochs 100      # the full suite, longer training
//	lumos-bench -exp fig7 -csv            # CSV output (full CDF curves)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lumos/internal/cli"
	"lumos/internal/eval"
	"lumos/internal/nn"
)

func main() {
	data := cli.Data{Seed: 42}
	model := cli.Model{Epsilon: 2, MCMC: 150}
	var engine cli.Engine
	data.Register(flag.CommandLine, "seed")
	model.Register(flag.CommandLine, "eps", "mcmc", "secure")
	engine.Register(flag.CommandLine, "workers")
	var (
		exp     = flag.String("exp", "all", "experiment: fig3|fig4|fig5|fig6|fig7|fig8|headline|all")
		fbScale = flag.Float64("fbscale", 0.02, "Facebook preset scale (0,1]")
		lfScale = flag.Float64("lfscale", 0.1, "LastFM preset scale (0,1]")
		epochs  = flag.Int("epochs", 60, "training epochs per system (paper: 300)")
		bbs     = flag.String("backbones", "gcn,gat", "comma-separated backbones: gcn,gat")
		dss     = flag.String("datasets", "facebook,lastfm", "comma-separated datasets: facebook,lastfm")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	opts := eval.Options{
		FacebookScale:  *fbScale,
		LastFMScale:    *lfScale,
		Epochs:         *epochs,
		Epsilon:        model.Epsilon,
		MCMCIterations: model.MCMC,
		SecureCompare:  model.Secure,
		Workers:        engine.Workers,
		Seed:           data.Seed,
	}
	for _, b := range strings.Split(*bbs, ",") {
		if b = strings.TrimSpace(b); b == "" {
			continue
		}
		bb, err := nn.ParseBackbone(b)
		check(err)
		opts.Backbones = append(opts.Backbones, bb)
	}
	for _, d := range strings.Split(*dss, ",") {
		switch strings.TrimSpace(strings.ToLower(d)) {
		case "facebook", "fb":
			opts.Datasets = append(opts.Datasets, eval.DatasetFacebook)
		case "lastfm", "lf":
			opts.Datasets = append(opts.Datasets, eval.DatasetLastFM)
		case "":
		default:
			fatalf("unknown dataset %q", d)
		}
	}

	wanted := strings.Split(strings.ToLower(*exp), ",")
	has := func(name string) bool {
		for _, w := range wanted {
			if w == name || w == "all" {
				return true
			}
		}
		return false
	}

	start := time.Now()
	emit := func(t *eval.Table) {
		var err error
		if *csv {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fatalf("rendering: %v", err)
		}
	}

	// The headline experiment re-runs Fig. 3 and Fig. 8 and prints their
	// tables, so skip the standalone runs when it is also selected.
	if has("fig3") && !has("headline") {
		rs, err := eval.RunFig3(opts)
		check(err)
		emit(eval.Fig3Table(rs))
	}
	if has("fig4") {
		rs, err := eval.RunFig4(opts)
		check(err)
		emit(eval.Fig4Table(rs))
	}
	if has("fig5") {
		rs, err := eval.RunFig5(opts)
		check(err)
		emit(eval.Fig5Table(rs))
	}
	if has("fig6") {
		rs, err := eval.RunFig6(opts)
		check(err)
		emit(eval.Fig6Table(rs))
	}
	if has("fig7") {
		rs, err := eval.RunFig7(opts)
		check(err)
		emit(eval.Fig7Table(rs))
		if *csv {
			emit(eval.Fig7CDFTable(rs))
		}
	}
	if has("fig8") && !has("headline") {
		rs, err := eval.RunFig8(opts)
		check(err)
		emit(eval.Fig8Table(rs))
	}
	if has("headline") {
		h, f3, f8, err := eval.RunHeadline(opts)
		check(err)
		emit(eval.Fig3Table(f3))
		emit(eval.Fig8Table(f8))
		emit(eval.HeadlineTable(h))
	}
	fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(start).Round(time.Second))
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lumos-bench: "+format+"\n", args...)
	os.Exit(1)
}
