package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.99, 7},
		{"median odd", []float64{3, 1, 2}, 0.5, 2},
		{"median even interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"min", []float64{4, 1, 3, 2}, 0, 1},
		{"max", []float64{4, 1, 3, 2}, 1, 4},
		{"p90 of 1..11", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{"p99 of 1..101", seq(101), 0.99, 100},
		{"clamps below", []float64{1, 2}, -1, 1},
		{"clamps above", []float64{1, 2}, 2, 2},
	} {
		if got := percentile(tc.xs, tc.p); !near(got, tc.want) {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.p, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}, {1000000, 0.99},
	} {
		if got := highestSupported(tc.n); !near(got, tc.want) {
			t.Errorf("highestSupported(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// Ten samples must lie beyond the chosen percentile.
	xs := seq(200)
	v, p := tailPercentile(xs)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("tailPercentile chose p=%v (value %v) with only %d samples beyond it", p, v, beyond)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Ten one-second windows of 100 observations at 1.0; one window also
	// holds a stall. The global p99 sees the stall, the windowed one does
	// not.
	var obs []timed
	for s := 0; s < 10; s++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if s == 4 && i < 20 {
				v = 500
			}
			obs = append(obs, timed{at: float64(s) + float64(i)/100, v: v})
		}
	}
	if got := windowedPercentile(obs, 1, 0.99, 0.5); !near(got, 1) {
		t.Errorf("windowed p99 = %v, want 1 (one stalled window out of ten must not move it)", got)
	}
	if got := percentile(values(obs), 0.99); got < 100 {
		t.Errorf("global p99 = %v; the test's stall should dominate it", got)
	}
	// The good-side quartile of the windows' medians ignores bad windows as
	// long as they are fewer than three in four.
	var spells []timed
	for s := 0; s < 8; s++ {
		for i := 0; i < 20; i++ {
			v := 1.0
			if s%2 == 1 {
				v = 3 // every other window is disturbed
			}
			spells = append(spells, timed{at: float64(s) + float64(i)/20, v: v})
		}
	}
	if got := windowedPercentile(spells, 1, 0.5, goodSide); !near(got, 1) {
		t.Errorf("good-side quartile of the windows' medians = %v, want 1", got)
	}
	if got := windowedPercentile(spells, 1, 0.5, 0.5); !near(got, 2) {
		t.Errorf("median of the windows' medians = %v, want 2", got)
	}
	// Too few observations per window: falls back to the global tail.
	sparse := []timed{{0.1, 1}, {1.1, 2}, {2.1, 3}}
	if got := windowedPercentile(sparse, 1, 0.99, 0.5); !near(got, 2) {
		t.Errorf("sparse windowed p99 = %v, want the median 2", got)
	}
	if got := windowedPercentile(nil, 1, 0.99, 0.5); got != 0 {
		t.Errorf("windowed p99 of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{20, 10}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread(seq(10)); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Req: "a", Name: "root", Start: 0, End: 100},
		{Req: "a", Name: "left", Parent: "root", Start: 10, End: 40},
		{Req: "a", Name: "right", Parent: "root", Start: 30, End: 70}, // overlaps left by 10
		{Req: "a", Name: "late", Parent: "root", Start: 90, End: 130}, // half outside its parent
		{Req: "b", Name: "left", Parent: "root", Start: 0, End: 1000}, // another request: not a's child
	}
	self := selfTimes(spans)
	// root: 100 − (10..70 merged = 60) − (90..100 = 10) = 30 ns = 0.03 µs
	if got := self["root"]; len(got) != 1 || !near(got[0], 0.03) {
		t.Errorf("root self time = %v µs, want [0.03]", got)
	}
	if got := self["left"]; len(got) != 2 || !near(got[0], 0.03) {
		t.Errorf("left self times = %v µs, want its own 30 ns first", got)
	}
}
