package load

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// Config drives one live load run.
type Config struct {
	// Target is the TCP address of a maxd or maxgw instance.
	Target string
	// Scenario is the offered load.
	Scenario Scenario
	// Timeouts bound each client wire phase (default 10s/10s).
	Timeouts protocol.Timeouts
	// DialTimeout bounds the TCP connect (default 2s).
	DialTimeout time.Duration
	// MetricsURL, when set, is the target's observability base URL
	// (e.g. "http://127.0.0.1:7701"); the run scrapes /histz before and
	// after and reports the pool hit-rate from the counter deltas.
	MetricsURL string
	// Registry, when set, reads pool counters in-process instead of
	// scraping — the validation harness's path. Overrides MetricsURL.
	Registry *obs.Registry
	// Matrix, when set, is the model the target serves: every answer
	// is checked against Matrix·y as a signed product wrapping at
	// 2·Width bits, as the garbled MAC does, and a wrong one counts in
	// Report.Miscomputed. Leave nil for a target whose model is unknown.
	Matrix [][]int64
	// Logf receives per-session diagnostics; nil discards them.
	Logf func(string, ...any)
}

// Run executes the scenario against the live target and reports what
// happened. Open-loop: the arrival schedule is precomputed
// (ArrivalTimes) and paced by the wall clock, never slowed by slow
// responses; arrivals past MaxInflight are skipped, not blocked on.
func Run(cfg Config) (*Report, error) {
	arrivals, err := ArrivalTimes(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("load: target address is required")
	}
	if cfg.Timeouts == (protocol.Timeouts{}) {
		cfg.Timeouts = protocol.Timeouts{Handshake: 10 * time.Second, IO: 10 * time.Second}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	before := readPoolCounters(cfg)

	var (
		skipped, succeeded, shed, failed, miscomputed atomic.Int64
		started                                       int
		mu                                            sync.Mutex
		latencies                                     []float64
		wg                                            sync.WaitGroup
	)
	var sem chan struct{}
	if cfg.Scenario.MaxInflight > 0 {
		sem = make(chan struct{}, cfg.Scenario.MaxInflight)
	}

	start := time.Now()
	for i, a := range arrivals {
		// Pace to the schedule. A late wake-up does not slow later
		// arrivals: each sleeps relative to the shared run start.
		if d := time.Duration(a.At*float64(time.Second)) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				skipped.Add(1)
				continue
			}
		}
		started++
		wg.Add(1)
		go func(i int, shape ShapeWeight) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			t0 := time.Now()
			y, out, err := oneSession(cfg, shape)
			switch {
			case err == nil && cfg.Matrix != nil && !slices.Equal(out, wantMatVec(cfg.Matrix, y, 2*shape.Width)):
				logf("load: session %d (%s): answer %v is wrong", i, shape.Key(), out)
				miscomputed.Add(1)
			case err == nil:
				succeeded.Add(1)
				mu.Lock()
				latencies = append(latencies, time.Since(t0).Seconds())
				mu.Unlock()
			case isBusy(err):
				shed.Add(1)
			default:
				logf("load: session %d (%s): %v", i, shape.Key(), err)
				failed.Add(1)
			}
		}(i, a.Shape)
	}
	wg.Wait()

	r := &Report{
		Target:      cfg.Target,
		Scenario:    cfg.Scenario,
		Offered:     len(arrivals),
		Started:     started,
		Skipped:     int(skipped.Load()),
		Succeeded:   int(succeeded.Load()),
		Shed:        int(shed.Load()),
		Failed:      int(failed.Load()),
		Miscomputed: int(miscomputed.Load()),
	}
	r.Finalize(latencies)
	if after := readPoolCounters(cfg); after != nil && before != nil {
		r.Pool = NewPoolStats(after.Hits-before.Hits, after.Misses-before.Misses)
	}
	return r, nil
}

// oneSession runs a single client session: dial, hint (unless the
// shape says NoHint), one matvec of the shape's width, clean close. The
// client vector y is the maxbench pattern (j%16 − 8) so every run
// offers identical work.
func oneSession(cfg Config, shape ShapeWeight) (y, out []int64, err error) {
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	cli.WithTimeouts(cfg.Timeouts)
	ot := shape.OT
	if ot == "" {
		ot = "per-round"
	}
	if !shape.NoHint {
		cli.WithShapeHint(protocol.ShapeHint{
			Rows: shape.Rows, Cols: shape.Cols, Width: shape.Width,
			Signed: true, Mode: "matvec", OT: ot,
		})
	}
	nc, err := net.DialTimeout("tcp", cfg.Target, cfg.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	conn := wire.NewStreamConn(nc)
	defer conn.Close()
	cs, err := cli.Dial(conn)
	if err != nil {
		return nil, nil, err
	}
	y = make([]int64, shape.Cols)
	for j := range y {
		y[j] = int64(j%16 - 8)
	}
	if out, err = cs.Do(y); err != nil {
		return nil, nil, err
	}
	return y, out, cs.Close()
}

// wantMatVec is A·y in a signed accumulator of accWidth ≤ 64 bits that
// wraps on overflow.
func wantMatVec(A [][]int64, y []int64, accWidth int) []int64 {
	out := make([]int64, len(A))
	shift := 64 - min(accWidth, 64)
	for i, row := range A {
		var acc int64
		for j, a := range row {
			acc += a * y[j]
		}
		out[i] = acc << shift >> shift
	}
	return out
}

func isBusy(err error) bool {
	var be *protocol.BusyError
	return errors.As(err, &be)
}

// readPoolCounters samples cumulative precompute hit/miss counters
// from whichever source the config provides; nil when none is
// available (the report then omits pool stats).
func readPoolCounters(cfg Config) *PoolStats {
	var snap *obs.Snapshot
	switch {
	case cfg.Registry != nil:
		snap = cfg.Registry.Snapshot()
	case cfg.MetricsURL != "":
		s, err := FetchSnapshot(cfg.MetricsURL)
		if err != nil {
			return nil
		}
		snap = s
	default:
		return nil
	}
	return PoolFromSnapshot(snap)
}
