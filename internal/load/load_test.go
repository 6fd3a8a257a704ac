package load

import (
	"math"
	"reflect"
	"testing"
)

func mix() []ShapeWeight {
	return []ShapeWeight{
		{Rows: 4, Cols: 4, Width: 8, Weight: 3},
		{Rows: 2, Cols: 8, Width: 8, Weight: 1},
	}
}

func TestArrivalTimesDeterministic(t *testing.T) {
	sc := Scenario{Rate: 50, Process: Poisson, DurationSec: 5, Seed: 42, Shapes: mix()}
	a, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	sc.Seed = 43
	c, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestArrivalTimesRateAndOrdering(t *testing.T) {
	for _, proc := range []string{Poisson, Uniform, Burst} {
		sc := Scenario{Rate: 100, Process: proc, DurationSec: 10, Seed: 7, Shapes: mix()}
		arr, err := ArrivalTimes(sc)
		if err != nil {
			t.Fatal(err)
		}
		// Offered count tracks rate·duration. Poisson fluctuates; 30%
		// slack at n=1000 is > 9 standard deviations.
		want := sc.Rate * sc.DurationSec
		if got := float64(len(arr)); got < want*0.7 || got > want*1.3 {
			t.Errorf("%s: %v arrivals, want ≈%v", proc, got, want)
		}
		prev := 0.0
		for i, a := range arr {
			if a.At < prev {
				t.Fatalf("%s: arrival %d at %v before %v (not sorted)", proc, i, a.At, prev)
			}
			if a.At >= sc.DurationSec {
				t.Fatalf("%s: arrival %d at %v past the %vs window", proc, i, a.At, sc.DurationSec)
			}
			prev = a.At
		}
	}
}

// The shape stream is seeded independently of the gap stream, so the
// two processes draw the same shape sequence at the same seed.
func TestShapeSequenceSharedAcrossProcesses(t *testing.T) {
	base := Scenario{Rate: 40, Process: Poisson, DurationSec: 5, Seed: 9, Shapes: mix()}
	p, err := ArrivalTimes(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Process = Uniform
	u, err := ArrivalTimes(base)
	if err != nil {
		t.Fatal(err)
	}
	n := len(p)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if p[i].Shape != u[i].Shape {
			t.Fatalf("shape draw %d differs across processes: %v vs %v", i, p[i].Shape, u[i].Shape)
		}
	}
}

func TestArrivalTimesShapeMixWeights(t *testing.T) {
	sc := Scenario{Rate: 200, Process: Uniform, DurationSec: 20, Seed: 3, Shapes: mix()}
	arr, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	heavy := 0
	for _, a := range arr {
		if a.Shape.Rows == 4 {
			heavy++
		}
	}
	frac := float64(heavy) / float64(len(arr))
	if math.Abs(frac-0.75) > 0.05 {
		t.Errorf("weight-3 shape drew %.3f of arrivals, want ≈0.75", frac)
	}
}

func TestBurstClumping(t *testing.T) {
	sc := Scenario{Rate: 80, Process: Burst, BurstSize: 8, DurationSec: 2, Seed: 1, Shapes: mix()}
	arr, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr)%8 != 0 {
		t.Fatalf("%d arrivals, want a multiple of the burst size 8", len(arr))
	}
	for i := 0; i < len(arr); i += 8 {
		for k := 1; k < 8; k++ {
			if arr[i+k].At != arr[i].At {
				t.Fatalf("burst at index %d not clumped: %v vs %v", i, arr[i+k].At, arr[i].At)
			}
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	good := Scenario{Rate: 1, Process: Poisson, DurationSec: 1, Shapes: mix()}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"zero rate", func(s *Scenario) { s.Rate = 0 }},
		{"zero duration", func(s *Scenario) { s.DurationSec = 0 }},
		{"unknown process", func(s *Scenario) { s.Process = "fractal" }},
		{"no shapes", func(s *Scenario) { s.Shapes = nil }},
		{"zero weights", func(s *Scenario) { s.Shapes = []ShapeWeight{{Rows: 1, Cols: 1, Width: 8, Weight: 0}} }},
		{"bad shape", func(s *Scenario) { s.Shapes = []ShapeWeight{{Rows: 0, Cols: 1, Width: 8, Weight: 1}} }},
	}
	for _, tc := range cases {
		s := good
		s.Shapes = mix()
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	// 100 samples 1ms..100ms: the nearest-rank p50 is exactly the 50th.
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i+1) / 1000
	}
	p := Summarize(s)
	if p.P50Ms != 50 || p.P99Ms != 99 || p.MaxMs != 100 || p.Samples != 100 {
		t.Errorf("percentiles = %+v", p)
	}
	if math.Abs(p.MeanMs-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", p.MeanMs)
	}
	if got := Summarize(nil); got != (Percentiles{}) {
		t.Errorf("empty input = %+v, want zero value", got)
	}
	one := Summarize([]float64{0.007})
	if one.P50Ms != 7 || one.P99Ms != 7 {
		t.Errorf("single sample = %+v", one)
	}
	// Rank ceil(p·n/100) at n=4: p50 is the 2nd sample, the tail ranks
	// round up to the last (rank equals n exactly).
	four := Summarize([]float64{0.040, 0.010, 0.030, 0.020})
	if four.P50Ms != 20 || four.P90Ms != 40 || four.P95Ms != 40 || four.P99Ms != 40 {
		t.Errorf("n=4 = %+v", four)
	}
	// The rank arithmetic at the edges Summarize never asks for: p below
	// 1 clamps to the first sample, p=100 is the last.
	sorted := []float64{10, 20, 30, 40}
	for _, tc := range []struct {
		p    int
		want float64
	}{{0, 10}, {1, 10}, {25, 10}, {51, 30}, {75, 30}, {100, 40}} {
		if got := nearestRank(sorted, tc.p); got != tc.want {
			t.Errorf("nearestRank(n=4, p=%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := nearestRank(s, 100); got != 0.1 {
		t.Errorf("nearestRank(n=100, p=100) = %v, want the max", got)
	}
}

func TestParseShapes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []ShapeWeight
	}{
		{"4x4/b=8", []ShapeWeight{{Rows: 4, Cols: 4, Width: 8, OT: "per-round", Weight: 1}}},
		{"4x4/b=8*3, 2x8/b=16/ot=batched*0.5", []ShapeWeight{
			{Rows: 4, Cols: 4, Width: 8, OT: "per-round", Weight: 3},
			{Rows: 2, Cols: 8, Width: 16, OT: "batched", Weight: 0.5},
		}},
		{"1x2/b=8/nohint*2", []ShapeWeight{{Rows: 1, Cols: 2, Width: 8, OT: "per-round", NoHint: true, Weight: 2}}},
		{"", nil},
		{"4x4", nil},
		{"4x4/b=x", nil},
		{"4x4/b=8*w", nil},
		{"4by4/b=8", nil},
		{"4x4/b=8/hint", nil},
	} {
		got, err := ParseShapes(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParseShapes(%q) = %+v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseShapes(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}

func TestReportFinalize(t *testing.T) {
	r := &Report{
		Scenario:  Scenario{Rate: 10, DurationSec: 4},
		Offered:   40,
		Succeeded: 30,
	}
	r.Finalize([]float64{0.01, 0.02, 0.03})
	if r.OfferedRate != 10 {
		t.Errorf("offered rate = %v, want 10", r.OfferedRate)
	}
	if r.AchievedRate != 7.5 {
		t.Errorf("achieved rate = %v, want 7.5", r.AchievedRate)
	}
	if r.Latency.Samples != 3 {
		t.Errorf("latency samples = %d, want 3", r.Latency.Samples)
	}
}
