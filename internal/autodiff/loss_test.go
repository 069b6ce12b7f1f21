package autodiff

import (
	"math"
	"testing"

	"lumos/internal/tensor"
)

func TestSoftmaxCrossEntropyValue(t *testing.T) {
	// Uniform logits over C classes → loss = ln C.
	logits := NewTape().Const(tensor.New(4, 3))
	loss := SoftmaxCrossEntropy(logits, []int{0, 1, 2, 0}, nil)
	if math.Abs(loss.Scalar()-math.Log(3)) > 1e-12 {
		t.Fatalf("uniform CE = %v, want ln3", loss.Scalar())
	}
}

func TestSoftmaxCrossEntropyMasking(t *testing.T) {
	logits := NewTape().Var(tensor.FromRows([][]float64{{10, 0}, {0, 10}}))
	// Row 1 masked out: only row 0 (correct, confident) contributes.
	loss := SoftmaxCrossEntropy(logits, []int{0, 0}, []float64{1, 0})
	if loss.Scalar() > 1e-3 {
		t.Fatalf("masked CE = %v, want ≈0", loss.Scalar())
	}
	loss.Backward()
	r1 := logits.Grad.Row(1)
	if r1[0] != 0 || r1[1] != 0 {
		t.Fatal("masked row must get zero gradient")
	}
}

func TestSoftmaxCrossEntropyAllZeroWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftmaxCrossEntropy(NewTape().Const(tensor.New(2, 2)), []int{0, 1}, []float64{0, 0})
}

func TestSoftmaxCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftmaxCrossEntropy(NewTape().Const(tensor.New(1, 2)), []int{5}, nil)
}

func TestLogisticLossValues(t *testing.T) {
	tp := NewTape()
	// score 0 → loss ln2 regardless of label.
	s := tp.Const(tensor.New(2, 1))
	loss := LogisticLoss(s, []float64{1, -1})
	if math.Abs(loss.Scalar()-math.Log(2)) > 1e-12 {
		t.Fatalf("logistic at 0 = %v, want ln2", loss.Scalar())
	}
	// Very confident correct predictions → loss ≈ 0.
	s2 := tp.Const(tensor.FromRows([][]float64{{50}, {-50}}))
	loss2 := LogisticLoss(s2, []float64{1, -1})
	if loss2.Scalar() > 1e-9 {
		t.Fatalf("confident logistic = %v", loss2.Scalar())
	}
	// Extreme scores must not overflow.
	s3 := tp.Const(tensor.FromRows([][]float64{{1e4}, {-1e4}}))
	loss3 := LogisticLoss(s3, []float64{-1, 1})
	if math.IsInf(loss3.Scalar(), 0) || math.IsNaN(loss3.Scalar()) {
		t.Fatalf("logistic overflow: %v", loss3.Scalar())
	}
}

func TestSoftplusStable(t *testing.T) {
	if got := softplus(1000); got != 1000 {
		t.Fatalf("softplus(1000) = %v", got)
	}
	if got := softplus(-1000); got != 0 {
		t.Fatalf("softplus(-1000) = %v", got)
	}
	if math.Abs(softplus(0)-math.Log(2)) > 1e-12 {
		t.Fatalf("softplus(0) = %v", softplus(0))
	}
}
