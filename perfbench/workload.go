package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"maxelerator/internal/load"
	"maxelerator/internal/protocol"
)

// loopKind is how a workload offers load.
type loopKind int

const (
	// oneshotLoop is a closed loop in which every request is a fresh
	// connection: handshake, base OT, IKNP setup, one request, close.
	oneshotLoop loopKind = iota
	// closedLoop is a closed loop over long-lived multiplexed sessions.
	closedLoop
	// openLoop dispatches Poisson arrivals over pre-dialed sessions.
	openLoop
)

// workload is one traffic mix. See README.md for why each exists.
type workload struct {
	name              string
	rows, cols, width int
	ot                protocol.OTMode
	loop              loopKind
	// conns is the number of closed-loop clients or open-loop sessions.
	conns int
	// workers is Request.GarbleWorkers (0 garbles inline).
	workers int
	// pool > 0 gives the server a started precompute engine whose pool
	// of this depth is prefilled during set-up.
	pool int
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// slo is the latency limit slo_met_frac counts against.
	slo time.Duration
}

// accWidth is the accumulator width the server runs with (the
// simulator default, 2·b); the plaintext check wraps at it.
func (w workload) accWidth() int { return 2 * w.width }

// workloads lists the traffic mixes for a host with nproc CPUs. No
// workload opens more than nproc connections.
func workloads(nproc int) []workload {
	conns := min(2, nproc)
	return []workload{
		{name: "oneshot-4x4", rows: 4, cols: 4, width: 8, ot: protocol.OTPerRound,
			loop: oneshotLoop, conns: conns, slo: 10 * time.Second},
		{name: "mux-inline-16x16", rows: 16, cols: 16, width: 16, ot: protocol.OTPerRound,
			loop: closedLoop, conns: 1, workers: nproc, slo: 500 * time.Millisecond},
		{name: "warm-open-8x8", rows: 8, cols: 8, width: 16, ot: protocol.OTBatched,
			loop: openLoop, conns: conns, pool: 8, rate: 10, slo: 250 * time.Millisecond},
	}
}

func findWorkload(name string, nproc int) (workload, error) {
	for _, w := range workloads(nproc) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything the program receives, all drawn from the seed.
type inputs struct {
	// Matrix is the server's model: every request computes Matrix·y.
	Matrix [][]int64
	// Vectors are the client inputs, used in turn; Want[i] is the
	// plaintext Matrix·Vectors[i].
	Vectors [][]int64
	Want    [][]int64
	// Arrivals are the open-loop due times in seconds from clock start.
	Arrivals []float64
}

// numVectors bounds the client-vector pool; requests cycle through it.
const numVectors = 64

func makeInputs(w workload, seed int64, seconds float64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	lo, span := -(int64(1) << (w.width - 1)), int64(1)<<w.width
	vec := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = lo + rng.Int63n(span)
		}
		return v
	}
	in := &inputs{Matrix: make([][]int64, w.rows)}
	for i := range in.Matrix {
		in.Matrix[i] = vec(w.cols)
	}
	for i := 0; i < numVectors; i++ {
		y := vec(w.cols)
		in.Vectors = append(in.Vectors, y)
		in.Want = append(in.Want, plainMatVec(in.Matrix, y, w.accWidth()))
	}
	if w.loop == openLoop {
		shape := load.ShapeWeight{Rows: w.rows, Cols: w.cols, Width: w.width, OT: w.ot.String(), Weight: 1}
		arr, err := poissonWindow(w.rate, seconds, seed, shape)
		if err != nil {
			return nil, err
		}
		in.Arrivals = arr
	}
	return in, nil
}

// encode serialises the inputs, so tests can compare them byte for byte.
func (in *inputs) encode() []byte {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // plain slices of numbers always marshal
	}
	return b
}

// poissonWindow returns round(rate·seconds) Poisson arrivals in
// [0, seconds): the first n+1 arrivals of load.ArrivalTimes, scaled so
// that arrival n+1 falls on the window's end. Given its count, a
// Poisson process's arrival times are uniform order statistics, which
// is what the scaled gaps are, so the schedule stays Poisson. But every
// seed offers the same n requests, so throughput_rps does not inherit
// the ±1/√n spread of a Poisson count.
func poissonWindow(rate, seconds float64, seed int64, shape load.ShapeWeight) ([]float64, error) {
	n := int(math.Round(rate * seconds))
	// A longer scenario only appends arrivals: the gap stream is the
	// same seeded sequence, so doubling until n+1 exist keeps the prefix.
	for dur := 2 * float64(n+1) / rate; ; dur *= 2 {
		arr, err := load.ArrivalTimes(load.Scenario{
			Rate: rate, Process: load.Poisson, DurationSec: dur, Seed: seed,
			Shapes: []load.ShapeWeight{shape},
		})
		if err != nil {
			return nil, err
		}
		if len(arr) > n {
			scale := seconds / arr[n].At
			out := make([]float64, n)
			for i := range out {
				out[i] = arr[i].At * scale
			}
			return out, nil
		}
	}
}

// plainMatVec is the reference result: A·y in a signed accumulator of
// accWidth bits that wraps on overflow, as the garbled MAC does.
func plainMatVec(A [][]int64, y []int64, accWidth int) []int64 {
	out := make([]int64, len(A))
	for i, row := range A {
		var acc uint64
		for j, a := range row {
			acc += uint64(a * y[j])
		}
		acc &= 1<<accWidth - 1
		if acc>>(accWidth-1) == 1 {
			out[i] = int64(acc) - 1<<accWidth
		} else {
			out[i] = int64(acc)
		}
	}
	return out
}
