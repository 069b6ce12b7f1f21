package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccuracyBasic(t *testing.T) {
	acc, err := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestAccuracyMasked(t *testing.T) {
	pred := []int{1, 0, 1, 0}
	truth := []int{1, 1, 1, 1}
	mask := []bool{true, false, true, false}
	acc, err := Accuracy(pred, truth, mask)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("masked accuracy = %v", acc)
	}
}

func TestAccuracyErrors(t *testing.T) {
	if _, err := Accuracy([]int{1}, []int{1, 2}, nil); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := Accuracy([]int{1}, []int{1}, []bool{true, false}); err == nil {
		t.Fatal("mask mismatch must error")
	}
	if _, err := Accuracy([]int{1}, []int{1}, []bool{false}); err == nil {
		t.Fatal("empty mask must error")
	}
}

func TestROCAUCPerfectAndInverted(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	auc, err := ROCAUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	inv, _ := ROCAUC(scores, []bool{false, false, true, true})
	if inv != 0 {
		t.Fatalf("inverted AUC = %v", inv)
	}
}

func TestROCAUCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Intn(2) == 0
	}
	auc, err := ROCAUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.02 {
		t.Fatalf("random AUC = %v", auc)
	}
}

func TestROCAUCTiesGiveHalfCredit(t *testing.T) {
	// All scores equal → AUC exactly 0.5 with midranks.
	auc, err := ROCAUC([]float64{1, 1, 1, 1}, []bool{true, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0.5 {
		t.Fatalf("tied AUC = %v", auc)
	}
}

func TestROCAUCErrors(t *testing.T) {
	if _, err := ROCAUC([]float64{1}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := ROCAUC([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Fatal("single class must error")
	}
}

func TestQuickROCAUCComplementSymmetry(t *testing.T) {
	// AUC(scores, labels) + AUC(scores, ¬labels) == 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		scores := make([]float64, n)
		labels := make([]bool, n)
		pos := 0
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*10) / 10 // induce ties
			labels[i] = rng.Intn(2) == 0
			if labels[i] {
				pos++
			}
		}
		if pos == 0 || pos == n {
			return true
		}
		inv := make([]bool, n)
		for i := range inv {
			inv[i] = !labels[i]
		}
		a1, err1 := ROCAUC(scores, labels)
		a2, err2 := ROCAUC(scores, inv)
		return err1 == nil && err2 == nil && math.Abs(a1+a2-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]int{5, 1, 3, 3, 9})
	if c.Max() != 9 {
		t.Fatalf("Max = %d", c.Max())
	}
	if c.Quantile(0.5) != 3 {
		t.Fatalf("median = %d", c.Quantile(0.5))
	}
	if c.Quantile(0) != 1 || c.Quantile(1) != 9 {
		t.Fatal("extreme quantiles wrong")
	}
	xs, ps := c.Points()
	if len(xs) != 4 { // distinct values 1,3,5,9
		t.Fatalf("points = %v", xs)
	}
	if ps[len(ps)-1] != 1 {
		t.Fatal("last CDF point must be 1")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.Max() != 0 || c.Quantile(0.5) != 0 {
		t.Fatal("empty CDF must be all zeros")
	}
}

func TestMeanStd(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
}

func TestRelChange(t *testing.T) {
	if RelChange(1.5, 1.0) != 0.5 {
		t.Fatal("rel change wrong")
	}
	if !math.IsInf(RelChange(1, 0), 1) {
		t.Fatal("rel change vs 0 must be +Inf")
	}
}
