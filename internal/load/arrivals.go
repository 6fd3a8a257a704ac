// Package load is the open-loop traffic generator of the capacity
// toolchain: seeded arrival processes (Poisson, uniform, burst) over a
// weighted shape mix, driven against a real maxd or maxgw fleet by the
// generator in load.go, and — critically — precomputed as an explicit
// arrival schedule that the capacity simulator (internal/capmodel)
// replays verbatim. Generator and simulator seeing the *same* arrival
// instants and shape choices is what makes their reports comparable:
// any disagreement is model error, never schedule noise.
package load

import (
	"fmt"
	"math/rand"
)

// ShapeWeight is one entry of the scenario's shape mix: a request
// shape plus its relative weight in the traffic.
type ShapeWeight struct {
	// Rows, Cols, Width shape the request (and the hint sent to a
	// shape-aware gateway).
	Rows  int `json:"rows"`
	Cols  int `json:"cols"`
	Width int `json:"width"`
	// OT is the per-request OT mode: "per-round" (default) or "batched".
	OT string `json:"ot,omitempty"`
	// NoHint sends no shape-hint preface, so a gateway routes the
	// session on its unhinted least-loaded path.
	NoHint bool `json:"no_hint,omitempty"`
	// Weight is the relative share of arrivals drawing this shape;
	// weights need not sum to 1.
	Weight float64 `json:"weight"`
}

// Key renders the shape as the pool key used across reports and the
// simulator: "4x4/b=8/ot=per-round".
func (s ShapeWeight) Key() string {
	ot := s.OT
	if ot == "" {
		ot = "per-round"
	}
	return fmt.Sprintf("%dx%d/b=%d/ot=%s", s.Rows, s.Cols, s.Width, ot)
}

// Arrival processes.
const (
	// Poisson draws exponential inter-arrival gaps at the scenario
	// rate — the memoryless open-loop baseline.
	Poisson = "poisson"
	// Uniform spaces arrivals exactly 1/rate apart — a metronome, for
	// isolating queueing effects from arrival variance.
	Uniform = "uniform"
	// Burst releases BurstSize arrivals back-to-back every
	// BurstSize/rate seconds: same offered rate, maximally clumped —
	// the admission queue's worst case.
	Burst = "burst"
)

// Scenario describes one open-loop load run. The same value drives the
// live generator and the simulator.
type Scenario struct {
	// Rate is the offered arrival rate in sessions/second.
	Rate float64 `json:"rate"`
	// Process is the arrival process: Poisson, Uniform or Burst.
	Process string `json:"process"`
	// BurstSize is the clump size under Burst (default 8; ignored
	// otherwise).
	BurstSize int `json:"burst_size,omitempty"`
	// DurationSec is the arrival window in seconds; sessions started
	// inside the window are allowed to finish after it.
	DurationSec float64 `json:"duration_sec"`
	// Seed makes the schedule deterministic: same seed, same arrival
	// instants and shape draws.
	Seed int64 `json:"seed"`
	// MaxInflight caps concurrent sessions on the client side;
	// arrivals past the cap are counted skipped, never blocked on
	// (open-loop). 0 = unlimited.
	MaxInflight int `json:"max_inflight,omitempty"`
	// Shapes is the weighted shape mix; at least one entry.
	Shapes []ShapeWeight `json:"shapes"`
}

// Validate rejects scenarios the generator and simulator cannot agree
// on.
func (s Scenario) Validate() error {
	if s.Rate <= 0 {
		return fmt.Errorf("load: rate %v must be positive", s.Rate)
	}
	if s.DurationSec <= 0 {
		return fmt.Errorf("load: duration %vs must be positive", s.DurationSec)
	}
	switch s.Process {
	case Poisson, Uniform, Burst:
	case "":
		return fmt.Errorf("load: arrival process is required (poisson, uniform or burst)")
	default:
		return fmt.Errorf("load: unknown arrival process %q", s.Process)
	}
	if len(s.Shapes) == 0 {
		return fmt.Errorf("load: scenario needs at least one shape")
	}
	total := 0.0
	for i, sw := range s.Shapes {
		if sw.Rows <= 0 || sw.Cols <= 0 || sw.Width <= 0 {
			return fmt.Errorf("load: shape %d (%s) has a non-positive dimension", i, sw.Key())
		}
		if sw.Weight < 0 {
			return fmt.Errorf("load: shape %d (%s) has negative weight", i, sw.Key())
		}
		total += sw.Weight
	}
	if total <= 0 {
		return fmt.Errorf("load: shape weights sum to zero")
	}
	return nil
}

// Arrival is one scheduled session start.
type Arrival struct {
	// At is the arrival instant in seconds from the run start.
	At float64
	// Shape is the drawn request shape.
	Shape ShapeWeight
}

// ArrivalTimes expands the scenario into its full arrival schedule.
// Two independent seeded streams — one for inter-arrival gaps, one for
// shape draws — keep the shape sequence identical across arrival
// processes at the same seed.
func ArrivalTimes(s Scenario) ([]Arrival, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	gaps := rand.New(rand.NewSource(s.Seed))
	shapes := rand.New(rand.NewSource(s.Seed ^ 0x5d3c_9d1a_2b77_f0e1))
	burst := s.BurstSize
	if burst <= 0 {
		burst = 8
	}
	var out []Arrival
	t := 0.0
	emit := func(at float64) {
		out = append(out, Arrival{At: at, Shape: drawShape(shapes, s.Shapes)})
	}
	switch s.Process {
	case Poisson:
		for {
			t += gaps.ExpFloat64() / s.Rate
			if t >= s.DurationSec {
				break
			}
			emit(t)
		}
	case Uniform:
		gap := 1 / s.Rate
		for t = gap; t < s.DurationSec; t += gap {
			emit(t)
		}
	case Burst:
		period := float64(burst) / s.Rate
		for t = period; t < s.DurationSec; t += period {
			for k := 0; k < burst; k++ {
				emit(t)
			}
		}
	}
	return out, nil
}

// drawShape is a weighted pick over the mix.
func drawShape(rng *rand.Rand, mix []ShapeWeight) ShapeWeight {
	total := 0.0
	for _, sw := range mix {
		total += sw.Weight
	}
	u := rng.Float64() * total
	for _, sw := range mix {
		u -= sw.Weight
		if u < 0 {
			return sw
		}
	}
	return mix[len(mix)-1]
}
