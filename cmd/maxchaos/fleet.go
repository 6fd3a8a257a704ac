package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/daemon"
	"maxelerator/internal/gateway"
	"maxelerator/internal/load"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
	"maxelerator/internal/wire/faultconn"
)

// Fault modes a chaos backend can be switched into between kills. New
// sessions accepted while a mode is active get their connection wrapped
// in the matching faultconn script; sessions already in flight are left
// alone (a real degradation hits new work first).
const (
	faultNone  int32 = iota
	faultStall       // accepted-but-mute: first read blocks until the conn closes
	faultFlaky       // lossy link: every op fails with probability flakyP
)

// chaosMatrix is the model every backend serves. The load generator
// checks each answer against it.
var chaosMatrix = [][]int64{{2, 3}}

// chaosBackend is one in-process internal/daemon the harness can kill,
// restart and degrade. Kill closes the daemon with zero drain (a process
// crash, not a graceful drain); restart re-binds the same addresses and
// boots a fresh daemon on them, so the gateway's static backend list
// stays valid. Faults go through the daemon's WrapConn hook.
type chaosBackend struct {
	id         int
	cfg        *chaosConfig
	protoAddr  string // fixed for the run; restart re-binds it
	healthAddr string

	fault    atomic.Int32
	flakySeq atomic.Int64 // per-conn seed so flaky runs differ but stay reproducible

	mu sync.Mutex
	d  *daemon.Daemon // nil while down
	// served and arena total the incarnations already closed: requests
	// completed, and frame buffers still lent out after teardown.
	served, arena int64
}

func startChaosBackend(cfg *chaosConfig, id int) (*chaosBackend, error) {
	ln, hln, err := bind("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &chaosBackend{id: id, cfg: cfg, protoAddr: ln.Addr().String(), healthAddr: hln.Addr().String()}
	return b, b.boot(ln, hln)
}

// boot starts a daemon on the bound listeners. The I/O budgets are
// loose because the OT base phase is real 2048-bit crypto: on a loaded
// single-core runner a healthy peer can take seconds between frames.
func (b *chaosBackend) boot(ln, hln net.Listener) error {
	d, err := daemon.Start(daemon.Config{
		Listener: ln, MetricsListener: hln,
		Matrix: chaosMatrix, Width: 8, GarbleWorkers: 1,
		Timeouts:   protocol.Timeouts{Handshake: 10 * time.Second, IO: 10 * time.Second},
		Precompute: true, PrecomputePool: 2, PrecomputeShapes: 8,
		Advertise: true,
		WrapConn:  b.wrap,
	})
	if err != nil {
		ln.Close()
		hln.Close()
		return err
	}
	b.mu.Lock()
	b.d = d
	b.mu.Unlock()
	return nil
}

// wrap applies the active fault mode to a newly accepted connection.
func (b *chaosBackend) wrap(c wire.Conn) wire.Conn {
	switch b.fault.Load() {
	case faultStall:
		return faultconn.New(c, faultconn.Options{StallFirstRead: true})
	case faultFlaky:
		return faultconn.New(c, faultconn.Flaky(b.flakySeq.Add(1), b.cfg.flakyP))
	}
	return c
}

// kill models a process crash: the daemon closes with zero drain,
// cutting every live session. Idempotent.
func (b *chaosBackend) kill() {
	b.mu.Lock()
	d := b.d
	b.d = nil
	b.mu.Unlock()
	if d == nil {
		return
	}
	d.Close()
	req, _ := d.Registry().Snapshot().Histogram("request_seconds", nil)
	b.mu.Lock()
	b.served += int64(req.Count)
	b.arena += d.ArenaOutstanding()
	b.mu.Unlock()
}

// restart re-binds the crashed backend's original addresses and boots
// a new daemon on them.
func (b *chaosBackend) restart() error {
	ln, hln, err := bind(b.protoAddr, b.healthAddr)
	if err != nil {
		return fmt.Errorf("backend %d: re-bind after restart: %w", b.id, err)
	}
	return b.boot(ln, hln)
}

// bind listens on both addresses. The kernel can hold a freed port
// briefly, so binding retries for up to two seconds before giving up.
func bind(proto, health string) (ln, hln net.Listener, err error) {
	for i := 0; i < 40 && hln == nil; i++ {
		if i > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		if ln == nil {
			ln, err = net.Listen("tcp", proto)
		}
		if ln != nil {
			hln, err = net.Listen("tcp", health)
		}
	}
	if hln == nil && ln != nil {
		ln.Close()
	}
	return ln, hln, err
}

// chaosFleet is the system under test: one live gateway routing over
// real TCP to the chaos backends.
type chaosFleet struct {
	cfg      *chaosConfig
	o        *obs.Obs
	gw       *gateway.Gateway
	ln       net.Listener
	gwAddr   string
	gwDone   chan error
	backends []*chaosBackend
	logf     func(string, ...any)
}

// chaosShapes is the load's shape mix: three hinted routes (shape keys
// hashing to different ring positions) and the unhinted least-loaded
// route. Hints are routing metadata only — every backend serves the
// same 1×2 b=8 matrix — so the lying widths are safe and exercise
// hint-miss accounting.
const chaosShapes = "1x2/b=8,1x2/b=16,1x2/b=32,1x2/b=8/nohint"

func startFleet(cfg *chaosConfig, logf func(string, ...any)) (*chaosFleet, error) {
	f := &chaosFleet{cfg: cfg, o: obs.New(0), logf: logf}
	var gwBackends []gateway.Backend
	for i := 0; i < cfg.backends; i++ {
		b, err := startChaosBackend(cfg, i)
		if err != nil {
			f.teardownBackends()
			return nil, err
		}
		f.backends = append(f.backends, b)
		gwBackends = append(gwBackends, gateway.Backend{Addr: b.protoAddr, HealthURL: "http://" + b.healthAddr})
	}
	gw, err := gateway.New(gateway.Config{
		Backends:        gwBackends,
		PeekTimeout:     100 * time.Millisecond,
		ProbeInterval:   cfg.probeInterval,
		EjectAfter:      cfg.ejectAfter,
		BreakerCooldown: cfg.breakerCooldown,
		RetryBudget:     cfg.retryBudget,
		RetryBudgetMin:  cfg.retryBudgetMin,
		MaxFailovers:    2,
		LoadFactor:      1.25,
		Obs:             f.o,
		Logf:            logf,
	})
	if err != nil {
		f.teardownBackends()
		return nil, err
	}
	f.gw = gw
	gw.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		f.teardownBackends()
		return nil, err
	}
	f.ln, f.gwAddr = ln, ln.Addr().String()
	f.gwDone = make(chan error, 1)
	go func() { f.gwDone <- gw.Serve(ln) }()
	return f, nil
}

func (f *chaosFleet) teardownBackends() {
	for _, b := range f.backends {
		b.kill()
	}
}

// stopIntake closes the gateway's listener so no new session can
// arrive; call before Drain.
func (f *chaosFleet) stopIntake() {
	f.ln.Close()
	<-f.gwDone
}

// runLoad drives open-loop load at the gateway for d: one session per
// loadInterval, regardless of how earlier sessions are doing, so a
// retry storm or a stalled fleet surfaces as errors instead of slowing
// the arrival clock. Arrivals past maxInflight are skipped, never
// blocked on. Client budgets are generous: they exist to bound
// sessions wedged on a muted or killed backend, not to police
// healthy-but-slow crypto on contended cores.
func (f *chaosFleet) runLoad(d time.Duration) (*load.Report, error) {
	mix, err := load.ParseShapes(chaosShapes)
	if err != nil {
		return nil, err
	}
	return load.Run(load.Config{
		Target: f.gwAddr,
		Scenario: load.Scenario{
			Rate: 1 / f.cfg.loadInterval.Seconds(), Process: load.Uniform,
			DurationSec: d.Seconds(), Seed: 1, MaxInflight: f.cfg.maxInflight, Shapes: mix,
		},
		Timeouts:    protocol.Timeouts{Handshake: 8 * time.Second, IO: 8 * time.Second},
		DialTimeout: 2 * time.Second,
		Matrix:      chaosMatrix,
		Logf:        f.logf,
	})
}

// close tears the whole fleet down: prober, then every backend.
func (f *chaosFleet) close() {
	f.gw.Close()
	f.teardownBackends()
}

// chaosCounters tallies what the chaos loop actually did.
type chaosCounters struct {
	kills, restarts, restartFails atomic.Int64
	stalls, flakyWindows          atomic.Int64
}

// chaosLoop is the fault injector: every killEvery it crashes the next
// backend round-robin (restarting it downFor later) and, on alternating
// cycles, opens a mute-peer stall window or a lossy-link flaky window
// on the following replica. One backend is down and at most one
// degraded at any time by construction, so the fleet always has live
// capacity and the invariants stay assertable.
func (f *chaosFleet) chaosLoop(done <-chan struct{}, c *chaosCounters) {
	t := time.NewTicker(f.cfg.killEvery)
	defer t.Stop()
	var wg sync.WaitGroup
	n := len(f.backends)
	for cycle := 0; ; cycle++ {
		select {
		case <-done:
			wg.Wait()
			return
		case <-t.C:
			v := f.backends[cycle%n]
			wg.Add(1)
			go func() {
				defer wg.Done()
				v.kill()
				c.kills.Add(1)
				f.logf("chaos: killed backend %d (%s)", v.id, v.protoAddr)
				select {
				case <-time.After(f.cfg.downFor):
				case <-done:
				}
				if err := v.restart(); err != nil {
					c.restartFails.Add(1)
					f.logf("chaos: %v", err)
					return
				}
				c.restarts.Add(1)
				f.logf("chaos: restarted backend %d (%s)", v.id, v.protoAddr)
			}()
			if n < 2 {
				continue
			}
			degraded := f.backends[(cycle+1)%n]
			switch {
			case cycle%2 == 0 && f.cfg.stallFor > 0:
				wg.Add(1)
				go func() {
					defer wg.Done()
					degraded.fault.Store(faultStall)
					c.stalls.Add(1)
					f.logf("chaos: stalling new sessions on backend %d for %s", degraded.id, f.cfg.stallFor)
					select {
					case <-time.After(f.cfg.stallFor):
					case <-done:
					}
					degraded.fault.Store(faultNone)
				}()
			case cycle%2 == 1 && f.cfg.flakyP > 0:
				wg.Add(1)
				go func() {
					defer wg.Done()
					degraded.fault.Store(faultFlaky)
					c.flakyWindows.Add(1)
					f.logf("chaos: flaky link p=%.2f on backend %d for %s", f.cfg.flakyP, degraded.id, f.cfg.flakyFor)
					select {
					case <-time.After(f.cfg.flakyFor):
					case <-done:
					}
					degraded.fault.Store(faultNone)
				}()
			}
		}
	}
}
