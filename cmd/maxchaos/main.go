// Command maxchaos is the fleet resilience harness: it boots a live
// gateway in front of N in-process internal/daemon backends over real
// TCP, drives open-loop client load at the gateway, and injects fleet
// chaos — killing and restarting a backend every -kill-every, muting a
// second one's new sessions (StallFirstRead) and making a third one's
// link lossy (Flaky) — then asserts the fleet-wide invariants the
// resilience layer promises:
//
//   - single-serve: no client session is ever completed by more than
//     one backend, whatever the failover interleaving;
//   - correctness: every session that succeeds returns the right MAC
//     result, even across flaky links;
//   - bounded errors: the client-visible error rate stays under
//     -max-error-rate, and failover dial load obeys the retry budget
//     (withdrawals ≤ ratio·deposits + burst) — outages shed fast
//     instead of amplifying into retry storms;
//   - clean drain: after load stops, gw_sessions_active, gw_draining
//     and every gw_backend_sessions gauge read zero;
//   - no leaks: goroutine count returns to its pre-run baseline and
//     every backend's wire arena reports zero outstanding buffers.
//
// The run's measurements and verdict are printed as a JSON report on
// stdout; the process exits 1 if any invariant broke (2 on setup
// failure). CI runs a bounded smoke configuration and archives the
// report.
//
// Usage:
//
//	maxchaos                          # 3 backends, 20s, kill every 5s
//	maxchaos -duration 60s -backends 5 -kill-every 3s -v
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"maxelerator/internal/obs"
)

// chaosConfig gathers every knob of one chaos run.
type chaosConfig struct {
	backends        int
	duration        time.Duration
	killEvery       time.Duration
	downFor         time.Duration
	stallFor        time.Duration
	flakyP          float64
	flakyFor        time.Duration
	loadInterval    time.Duration
	maxInflight     int
	maxErrorRate    float64
	probeInterval   time.Duration
	ejectAfter      int
	breakerCooldown time.Duration
	retryBudget     float64
	retryBudgetMin  float64
	verbose         bool
}

func defaultConfig() chaosConfig {
	return chaosConfig{
		backends:        3,
		duration:        20 * time.Second,
		killEvery:       5 * time.Second,
		downFor:         2 * time.Second,
		stallFor:        time.Second,
		flakyP:          0.1,
		flakyFor:        time.Second,
		// A session's handshake runs a real OT-extension base phase
		// (~128 exponentiations in a 2048-bit group), so one session
		// costs on the order of a second of CPU; the arrival rate and
		// concurrency cap are sized for a small CI runner. The error
		// bound is generous for the same reason: failover is
		// pre-handshake only, so every session caught mid-handshake by
		// a kill is honest collateral — with second-long handshakes and
		// a kill every 5s that is a sizeable fraction of a sparse load.
		loadInterval:    500 * time.Millisecond,
		maxInflight:     3,
		maxErrorRate:    0.6,
		probeInterval:   250 * time.Millisecond,
		ejectAfter:      2,
		breakerCooldown: time.Second,
		retryBudget:     0.2,
		retryBudgetMin:  10,
	}
}

func main() {
	cfg := defaultConfig()
	flag.IntVar(&cfg.backends, "backends", cfg.backends, "backends in the fleet")
	flag.DurationVar(&cfg.duration, "duration", cfg.duration, "how long to drive load")
	flag.DurationVar(&cfg.killEvery, "kill-every", cfg.killEvery, "period between backend kills (round-robin victim)")
	flag.DurationVar(&cfg.downFor, "down-for", cfg.downFor, "how long a killed backend stays down before restarting")
	flag.DurationVar(&cfg.stallFor, "stall-for", cfg.stallFor, "mute-peer window per chaos cycle on a second backend (0 disables)")
	flag.Float64Var(&cfg.flakyP, "flaky-p", cfg.flakyP, "per-op loss probability during flaky windows (0 disables)")
	flag.DurationVar(&cfg.flakyFor, "flaky-for", cfg.flakyFor, "lossy-link window per chaos cycle on a third backend")
	flag.DurationVar(&cfg.loadInterval, "load-interval", cfg.loadInterval, "open-loop session arrival period")
	flag.IntVar(&cfg.maxInflight, "max-inflight", cfg.maxInflight, "client concurrency cap; arrivals past it are skipped, not queued")
	flag.Float64Var(&cfg.maxErrorRate, "max-error-rate", cfg.maxErrorRate, "maximum tolerated client-visible error fraction")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", cfg.probeInterval, "gateway health poll period")
	flag.IntVar(&cfg.ejectAfter, "eject-after", cfg.ejectAfter, "consecutive failures before a backend's breaker opens")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", cfg.breakerCooldown, "base breaker cooldown before a readmission trial")
	flag.Float64Var(&cfg.retryBudget, "retry-budget", cfg.retryBudget, "gateway failover budget ratio")
	flag.Float64Var(&cfg.retryBudgetMin, "retry-budget-min", cfg.retryBudgetMin, "gateway failover burst allowance")
	flag.BoolVar(&cfg.verbose, "v", false, "log chaos events and gateway decisions to stderr")
	flag.Parse()

	rep, err := runChaos(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxchaos:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if !rep.Pass {
		os.Exit(1)
	}
}

// runChaos executes one full chaos run: fleet up, chaos + load,
// drain, measure, tear down, judge. It is the whole harness behind a
// single call so the CI smoke test and main() share every code path.
func runChaos(cfg chaosConfig) (*Report, error) {
	if cfg.backends < 1 {
		return nil, fmt.Errorf("need at least 1 backend, have %d", cfg.backends)
	}
	logf := func(string, ...any) {}
	if cfg.verbose {
		logf = log.Printf
	}
	goroutinesBefore := runtime.NumGoroutine()

	fleet, err := startFleet(&cfg, logf)
	if err != nil {
		return nil, err
	}

	counters := &chaosCounters{}
	chaosDone := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		fleet.chaosLoop(chaosDone, counters)
	}()

	stats, loadErr := fleet.runLoad(cfg.duration)

	// Stop the chaos first (restoring every backend), then the intake,
	// then let in-flight relays drain on their own connections.
	close(chaosDone)
	chaosWG.Wait()
	fleet.stopIntake()
	drained := fleet.gw.Drain(10 * time.Second)
	if loadErr != nil {
		fleet.close()
		return nil, loadErr
	}

	rep := &Report{
		Backends:             cfg.backends,
		Duration:             cfg.duration.String(),
		KillEvery:            cfg.killEvery.String(),
		Sessions:             int64(stats.Started),
		Skipped:              int64(stats.Skipped),
		Succeeded:            int64(stats.Succeeded),
		Shed:                 int64(stats.Shed),
		Failed:               int64(stats.Failed),
		Miscomputed:          int64(stats.Miscomputed),
		Kills:                counters.kills.Load(),
		Restarts:             counters.restarts.Load(),
		RestartFailures:      counters.restartFails.Load(),
		Stalls:               counters.stalls.Load(),
		FlakyWindows:         counters.flakyWindows.Load(),
		Drained:              drained,
		GoroutinesBefore:     goroutinesBefore,
		ServedByBackend:      map[string]int64{},
		GaugeBackendSessions: map[string]int64{},
		ArenaOutstanding:     map[string]int64{},
	}
	rep.BudgetDeposits, rep.BudgetWithdrawals, rep.BudgetDenials = fleet.gw.RetryBudgetStats()

	// Gauges are read after the drain but before teardown: this is the
	// state a dashboard would see on a quiesced, still-serving gateway.
	reg := fleet.o.Metrics()
	rep.GaugeSessionsActive = reg.Gauge("gw_sessions_active", "").Value()
	rep.GaugeDraining = reg.Gauge("gw_draining", "").Value()
	for _, b := range fleet.backends {
		rep.GaugeBackendSessions[b.protoAddr] = reg.Gauge("gw_backend_sessions", "", obs.L("backend", b.protoAddr)).Value()
	}

	fleet.close()
	for _, b := range fleet.backends {
		rep.ServedByBackend[b.protoAddr] = b.served
		rep.ServedTotal += b.served
		rep.ArenaOutstanding[b.protoAddr] = b.arena
	}
	rep.GoroutinesAfter = settleGoroutines(goroutinesBefore, 5*time.Second)
	rep.evaluate(&cfg)
	return rep, nil
}
