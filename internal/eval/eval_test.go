package eval

import (
	"bytes"
	"strings"
	"testing"

	"lumos/internal/nn"
)

// tinyOpts keeps every experiment runner fast enough for unit tests while
// still exercising the full pipeline.
func tinyOpts() Options {
	return Options{
		FacebookScale:  0.008,
		LastFMScale:    0.02,
		Epochs:         4,
		MCMCIterations: 15,
		Backbones:      []nn.Backbone{nn.GCN},
		Datasets:       []string{DatasetFacebook},
		Seed:           1,
	}
}

func TestOptionsValidateDefaults(t *testing.T) {
	o := Options{}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Epochs != 60 || o.Epsilon != 2 || len(o.Backbones) != 2 || len(o.Datasets) != 2 {
		t.Fatalf("defaults: %+v", o)
	}
	bad := Options{Datasets: []string{"nope"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown dataset must error")
	}
	bad2 := Options{FacebookScale: 2}
	if err := bad2.Validate(); err == nil {
		t.Fatal("scale > 1 must error")
	}
}

func TestLoadDataset(t *testing.T) {
	o := tinyOpts()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := o.LoadDataset(DatasetLastFM)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumClasses != 18 {
		t.Fatal("lastfm preset wrong")
	}
	if _, err := o.LoadDataset("bogus"); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestRunFig3Shapes(t *testing.T) {
	rs, err := RunFig3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	r := rs[0]
	for name, v := range map[string]float64{
		"lumos": r.Lumos, "centralized": r.Centralized,
		"lpgnn": r.LPGNN, "naive": r.NaiveFed,
	} {
		if v <= 0 || v > 1 {
			t.Fatalf("%s accuracy %v outside (0,1]", name, v)
		}
	}
	tab := Fig3Table(rs)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Lumos") {
		t.Fatal("table missing Lumos column")
	}
}

func TestRunFig4Shapes(t *testing.T) {
	rs, err := RunFig4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Lumos <= 0 || rs[0].Centralized <= 0 || rs[0].NaiveFed <= 0 {
		t.Fatalf("AUCs missing: %+v", rs[0])
	}
	if Fig4Table(rs) == nil {
		t.Fatal("no table")
	}
}

func TestRunFig5SweepsEpsilon(t *testing.T) {
	rs, err := RunFig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(Fig5Epsilons) {
		t.Fatalf("results = %d, want %d", len(rs), len(Fig5Epsilons))
	}
	for i, r := range rs {
		if r.Epsilon != Fig5Epsilons[i] {
			t.Fatalf("epsilon order wrong: %v", r.Epsilon)
		}
		if r.Accuracy <= 0 || r.AUC <= 0 {
			t.Fatalf("missing metrics at eps %v", r.Epsilon)
		}
	}
	if Fig5Table(rs) == nil {
		t.Fatal("no table")
	}
}

func TestRunFig6Ablations(t *testing.T) {
	rs, err := RunFig6(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	for name, v := range map[string]float64{
		"acc": r.Acc, "accNoVN": r.AccNoVN, "accNoTT": r.AccNoTT,
		"auc": r.AUC, "aucNoVN": r.AUCNoVN, "aucNoTT": r.AUCNoTT,
	} {
		if v <= 0 || v > 1 {
			t.Fatalf("%s = %v outside (0,1]", name, v)
		}
	}
	if Fig6Table(rs) == nil {
		t.Fatal("no table")
	}
}

func TestRunFig7TrimsTail(t *testing.T) {
	rs, err := RunFig7(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.TrimmedMax >= r.RawMax {
		t.Fatalf("trimming did not reduce the max: %d vs %d", r.TrimmedMax, r.RawMax)
	}
	if r.TrimmedP99 > r.RawP99 {
		t.Fatalf("trimmed p99 %d above raw %d", r.TrimmedP99, r.RawP99)
	}
	if Fig7Table(rs) == nil || Fig7CDFTable(rs) == nil {
		t.Fatal("missing tables")
	}
}

func TestRunFig8SavesCost(t *testing.T) {
	rs, err := RunFig8(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 { // supervised + unsupervised on one dataset
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if r.CommTrimmed >= r.CommRaw {
			t.Fatalf("%s/%s: trimming did not save communication (%v vs %v)",
				r.Dataset, r.Task, r.CommTrimmed, r.CommRaw)
		}
		if r.TimeTrimmed >= r.TimeRaw {
			t.Fatalf("%s/%s: trimming did not save epoch time", r.Dataset, r.Task)
		}
		if r.CommSavings <= 0 || r.TimeSavings <= 0 {
			t.Fatal("savings not positive")
		}
	}
	if Fig8Table(rs) == nil {
		t.Fatal("no table")
	}
}

func TestRunHeadline(t *testing.T) {
	h, f3, f8, err := RunHeadline(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) == 0 || len(f8) == 0 {
		t.Fatal("headline missing sub-results")
	}
	if h.CommReduction <= 0 || h.TimeReduction <= 0 {
		t.Fatalf("headline reductions: %+v", h)
	}
	if HeadlineTable(h) == nil {
		t.Fatal("no table")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "longcol"}}
	tab.AddRow("x", 1.5)
	tab.AddRow("yyyy", "z")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "longcol") || !strings.Contains(out, "1.5000") {
		t.Fatalf("render output:\n%s", out)
	}
	var csv bytes.Buffer
	if err := tab.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,longcol" {
		t.Fatalf("csv output:\n%s", csv.String())
	}
}

// TestTableRenderMarkdown: the markdown renderer emits a valid GFM table
// with escaped pipes and the title as a bold paragraph.
func TestTableRenderMarkdown(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "b"}}
	tab.AddRow("x|y", 1.5)
	var buf bytes.Buffer
	if err := tab.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "**t**\n\n| a | b |\n| --- | --- |\n| x\\|y | 1.5000 |\n"
	if got != want {
		t.Fatalf("markdown mismatch:\n got %q\nwant %q", got, want)
	}
}
