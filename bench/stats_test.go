package main

import (
	"math"
	"testing"
)

func TestLowerEnvelopeKeepsFastestPassPerRound(t *testing.T) {
	passes := [][]float64{
		{10, 30, 12}, // a slow period over round 1
		{25, 11, 12}, // another over round 0
		{10, 11, 40},
	}
	env, sum, err := lowerEnvelope(passes)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 11, 12}
	for i := range want {
		if env[i] != want[i] {
			t.Errorf("round %d: envelope %v, want %v", i, env[i], want[i])
		}
	}
	if sum != 33 {
		t.Errorf("sum %v, want 33", sum)
	}
	if passes[0][1] != 30 {
		t.Error("lowerEnvelope modified its input")
	}
}

func TestLowerEnvelopeOfOnePassIsThePass(t *testing.T) {
	_, sum, err := lowerEnvelope([][]float64{{3, 4}})
	if err != nil || sum != 7 {
		t.Errorf("sum %v err %v, want 7 <nil>", sum, err)
	}
}

func TestLowerEnvelopeRejectsRaggedAndEmpty(t *testing.T) {
	if _, _, err := lowerEnvelope(nil); err == nil {
		t.Error("no passes: want an error")
	}
	if _, _, err := lowerEnvelope([][]float64{{}}); err == nil {
		t.Error("no rounds: want an error")
	}
	if _, _, err := lowerEnvelope([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged passes: want an error")
	}
}

func TestQuantileReportsSampleCount(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		got, n := quantile(samples, c.q)
		if got != c.want || n != 10 {
			t.Errorf("quantile(%v) = %v over %d samples, want %v over 10", c.q, got, n, c.want)
		}
	}
	if samples[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if v, n := quantile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("quantile of nothing = %v over %d", v, n)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v, want 0", m)
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{4000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.5}, {0, 0.5},
	} {
		got := tailQuantile(c.n)
		if got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0.5 && math.Floor(float64(c.n)*(1-got)+1e-9) < 10 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}
