package stats

import "testing"

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stdev() != 0 {
		t.Fatal("empty sample not all zero")
	}
	if s.N() != 0 {
		t.Fatal("empty N")
	}
}

func TestMoments(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean %v", s.Mean())
	}
	if s.Stdev() != 2 {
		t.Fatalf("stdev %v", s.Stdev())
	}
	if s.N() != 8 {
		t.Fatalf("n %d", s.N())
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(3)
	if s.Stdev() != 0 {
		t.Fatal("stdev of one point")
	}
	if s.Mean() != 3 {
		t.Fatal("single-point stats")
	}
}

func TestRelativeImprovement(t *testing.T) {
	if got := RelativeImprovement(80, 100); got != 0.2 {
		t.Fatalf("improvement %v", got)
	}
	if got := RelativeImprovement(100, 80); got != -0.25 {
		t.Fatalf("regression %v", got)
	}
	if got := RelativeImprovement(1, 0); got != 0 {
		t.Fatalf("div-by-zero guard %v", got)
	}
}

func TestString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	if got := s.String(); got != "2.00 ± 1.00 (n=2)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestWelch(t *testing.T) {
	var a, b Sample
	for i := 0; i < 10; i++ {
		a.Add(100 + float64(i%3))
		b.Add(120 + float64(i%3))
	}
	tv, df := Welch(&a, &b)
	if tv >= 0 {
		t.Fatalf("t = %v, want negative (a < b)", tv)
	}
	if df <= 0 {
		t.Fatalf("df = %v", df)
	}
	if !Significant(&a, &b) {
		t.Fatal("20%% gap with tiny variance not significant")
	}
	// Identical distributions: not significant.
	var c, d Sample
	for i := 0; i < 10; i++ {
		c.Add(100 + float64(i%5))
		d.Add(100 + float64((i+2)%5))
	}
	if Significant(&c, &d) {
		t.Fatal("same-mean samples reported significant")
	}
	// Degenerate sizes.
	var e Sample
	e.Add(1)
	if tv, df := Welch(&e, &a); tv != 0 || df != 0 {
		t.Fatal("single-observation sample should yield zeros")
	}
	if Significant(&e, &a) {
		t.Fatal("undersized sample reported significant")
	}
}
