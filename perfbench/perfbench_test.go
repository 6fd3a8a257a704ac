package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"maxelerator/internal/load"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
)

func TestInputsSeeded(t *testing.T) {
	for _, w := range workloads(2) {
		a, err := makeInputs(w, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, 7, 10)
		c, _ := makeInputs(w, 8, 10)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 7 gave different inputs on two draws", w.name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.name)
		}
		if w.loop != openLoop {
			continue
		}
		if len(a.Arrivals) != int(w.rate*10) || slices.Equal(a.Arrivals, c.Arrivals) {
			t.Errorf("%s: %d arrivals, want %d, differing by seed", w.name, len(a.Arrivals), int(w.rate*10))
		}
		if !slices.IsSorted(a.Arrivals) || a.Arrivals[0] < 0 || a.Arrivals[len(a.Arrivals)-1] >= 10 {
			t.Errorf("%s: arrivals not sorted inside the window", w.name)
		}
	}
}

// TestPlainMatVecMatchesGarbledMAC pins the plaintext reference to the
// accumulator's wrap-around on inputs that overflow it.
func TestPlainMatVecMatchesGarbledMAC(t *testing.T) {
	cfg := maxsim.Config{Width: 8, Signed: true}
	sim, err := maxsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	A := [][]int64{{-128, -128, -128, -128}, {127, 127, 127, 127}, {-128, 127, 5, -3}}
	y := []int64{-128, -128, -128, -128}
	want := plainMatVec(A, y, 16)
	if want[0] != 0 {
		t.Fatalf("4·(-128)² in a 16-bit accumulator = %d, want 0 after wrap", want[0])
	}
	for i, row := range A {
		run, err := sim.GarbleDotProduct(row)
		if err != nil {
			t.Fatal(err)
		}
		sc := sim.Config()
		got, err := maxsim.EvaluateDotProduct(sc.Params, sim.Circuit(), run, y, sc.Width, sc.Signed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("row %d: garbled MAC gives %d, plainMatVec %d", i, got, want[i])
		}
	}
}

func TestTailUsesSummarizeConvention(t *testing.T) {
	for _, tc := range []struct{ n, p, beyond int }{{100, 90, 10}, {200, 95, 10}, {20, 50, 10}, {30, 66, 10}, {8, 50, 4}} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		p, v, beyond := tail(s)
		if p != tc.p || beyond != tc.beyond {
			t.Errorf("n=%d: tail p%d with %d beyond, want p%d with %d", tc.n, p, beyond, tc.p, tc.beyond)
		}
		sum := load.Summarize(s)
		ref := map[int]float64{50: sum.P50Ms, 90: sum.P90Ms, 95: sum.P95Ms}
		if r, ok := ref[p]; ok && v*1000 != r {
			t.Errorf("n=%d: tail p%d = %v, load.Summarize gives %v", tc.n, p, v*1000, r)
		}
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	parent := span{Start: 10, End: 100}
	kids := []span{{Start: 0, End: 20}, {Start: 15, End: 30}, {Start: 50, End: 60}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40 (10..30, 50..60, 90..100)", got)
	}
}

// TestDispatchTimesFromDueTime shows that a request queued behind a busy
// session is charged its wait.
func TestDispatchTimesFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	out, _ := dispatch(time.Now(), []float64{0, 0, 0}, 1, func(int) (bool, error) {
		time.Sleep(service)
		return true, nil
	})
	for i, o := range out {
		if !o.done || o.lat < time.Duration(i+1)*service {
			t.Errorf("arrival %d: latency %v, want at least %v", i, o.lat, time.Duration(i+1)*service)
		}
	}
}

// TestClockStartsAfterWarmUp pins the set-up accounting by event order,
// not by timing: every session's warm-up returns before the clock
// starts, and the window sends only its own requests.
func TestClockStartsAfterWarmUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real base OT")
	}
	tiny := []workload{
		{name: "oneshot", rows: 2, cols: 2, width: 8, loop: oneshotLoop, conns: 2, slo: time.Minute},
		{name: "closed", rows: 2, cols: 2, width: 8, loop: closedLoop, conns: 1, workers: 2, slo: time.Minute},
		{name: "open", rows: 2, cols: 2, width: 8, ot: protocol.OTBatched, loop: openLoop, conns: 2, pool: 2, rate: 20, slo: time.Minute},
	}
	for _, w := range tiny {
		t.Run(w.name, func(t *testing.T) {
			in, err := makeInputs(w, 1, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			r, err := newRig(w, in, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			wd := r.measure(500 * time.Millisecond)
			r.close()
			var want []string
			for i := 0; i < w.conns; i++ {
				want = append(want, "warmup-returned")
			}
			want = append(want, "clock-start")
			if !slices.Equal(r.events, want) {
				t.Errorf("events %q, want %q", r.events, want)
			}
			if wd.failed != 0 || wd.sent == 0 {
				t.Errorf("window sent %d, failed %d", wd.sent, wd.failed)
			}
			if w.loop == openLoop && wd.sent != len(in.Arrivals) {
				t.Errorf("open loop sent %d, schedule has %d", wd.sent, len(in.Arrivals))
			}
			if served := len(r.served); served != wd.sent+w.conns {
				t.Errorf("server completed %d requests, want %d in the window plus %d warm-ups", served, wd.sent, w.conns)
			}
		})
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the report in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ms []metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.name] = m.unit
		}
		return out
	}
	w := workloads(2)[1]
	e2e := units(endToEnd(w, &window{}, []time.Duration{time.Second}, time.Second))
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if e2e[m.Name] != m.Unit {
			t.Errorf("end_to_end %s: unit %q, report says %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	if !slices.Equal(names, endToEndNames) {
		t.Errorf("end_to_end %v, report gates %v", names, endToEndNames)
	}
	empty := &window{snap0: &obs.Snapshot{}, snap1: &obs.Snapshot{}}
	layer := perLayer(layerInput{w: w, base: &window{}, wd: empty, rec: newRecorder(), iso: &isolation{garble: 1}})
	lu := units(layer)
	if len(spec.PerLayer) != len(layer) {
		t.Errorf("per_layer lists %d metrics, the traced run reports %d", len(spec.PerLayer), len(layer))
	}
	for _, m := range spec.PerLayer {
		if lu[m.Name] != m.Unit {
			t.Errorf("per_layer %s: unit %q, report says %q", m.Name, m.Unit, lu[m.Name])
		}
	}
}

// TestModeledStatsRepeatExactly: the simulated per-request means must not
// depend on how many requests a window happened to hold.
func TestModeledStatsRepeatExactly(t *testing.T) {
	w := workloads(2)[2]
	sim, err := maxsim.New(w.simConfig())
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.GarbleDotProduct(make([]int64, w.cols))
	if err != nil {
		t.Fatal(err)
	}
	modeled := func(n int) map[string]float64 {
		wd := &window{t0: time.Now(), snap0: &obs.Snapshot{}, snap1: &obs.Snapshot{}}
		var sv []served
		for i := 0; i < n; i++ {
			st := run.Stats
			st.Cycles, st.Stages, st.IdleSlots = st.Cycles*uint64(w.rows), st.Stages*uint64(w.rows), st.IdleSlots*uint64(w.rows)
			st.ModeledTime *= time.Duration(w.rows)
			sv = append(sv, served{at: wd.t0.Add(time.Second), stats: st})
		}
		iso := &isolation{garble: 1, cores: sim.Schedule().NumCores()}
		out := map[string]float64{}
		for _, m := range perLayer(layerInput{w: w, base: &window{}, wd: wd, rec: newRecorder(), served: sv, iso: iso}) {
			if strings.HasPrefix(m.name, "maxsim.") {
				out[m.name] = m.value
			}
		}
		return out
	}
	a, b := modeled(97), modeled(203)
	if len(a) != 3 || !maps.Equal(a, b) {
		t.Errorf("simulated means differ with the request count: %v vs %v", a, b)
	}
}
