// Package daemon is the MAXelerator serving daemon: the cloud server of
// Fig. 1 that owns the model matrix and serves privacy-preserving
// matrix-vector products to many clients, one multiplexed protocol
// session per connection. cmd/maxd wraps it in flags, model loading and
// signals; maxcap -validate, the capacity-model tests and maxchaos boot
// it in process, so every harness measures the daemon that ships.
//
// The daemon owns the only admission controller. With MaxSessions > 0
// a counting semaphore bounds the sessions in flight; a connection past
// the limit queues (the sessions_waiting gauge) for up to AdmissionWait
// and is then shed with a BUSY frame whose retry hint is the wait
// (busy_rejects_total; /healthz answers 503 overloaded for a while
// after). AdmissionWait 0 queues without bound; a queued connection
// still gives up, with no BUSY frame, when the daemon shuts down.
//
// Shutdown is drain then escalate: intake stops, in-flight sessions get
// DrainTimeout to finish, then the daemon cancels them — slamming each
// session's wire deadline and closing its connection — so no silent or
// stalled peer can hold shutdown open.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/precompute"
	"maxelerator/internal/protocol"
	"maxelerator/internal/report"
	"maxelerator/internal/wire"
)

// Config is one daemon. Every field is a maxd flag (named in its
// comment), a listener, the logger or the fault hook.
type Config struct {
	// Listener accepts protocol connections (-listen); the daemon
	// closes it when it stops. MetricsListener, when set, serves
	// /metrics, /histz, /debug/sessions and /healthz (-metrics-addr).
	Listener, MetricsListener net.Listener
	// Matrix is the served model in fixed-point words (-model, or
	// -demo-rows/-demo-cols/-seed); it must be rectangular.
	Matrix [][]int64
	// Width is the operand bit-width (-b); the accumulator is 2·Width.
	Width int
	// Once serves one connection, then stops (-once).
	Once bool
	// DrainTimeout is how long in-flight sessions may run on after
	// intake stops before they are cancelled (-drain-timeout).
	DrainTimeout time.Duration
	// GarbleWorkers sizes each request's row-garbling pool
	// (-garble-workers).
	GarbleWorkers int
	// MaxSessions bounds the sessions in flight, 0 = unlimited
	// (-max-sessions); AdmissionWait bounds the queue wait behind it
	// before a BUSY shed, 0 = no bound (-admission-wait).
	MaxSessions   int
	AdmissionWait time.Duration
	// Timeouts are the per-phase wire deadlines (-handshake-timeout,
	// -io-timeout); zero disables a deadline.
	Timeouts protocol.Timeouts
	// Precompute pre-garbles MAC circuits in the background, keeping
	// PrecomputePool entries for each of at most PrecomputeShapes
	// shapes (-precompute, -precompute-pool, -precompute-shapes).
	Precompute                       bool
	PrecomputePool, PrecomputeShapes int
	// Pprof mounts /debug/pprof/ (-pprof) and Advertise mounts /shapez,
	// the shapes served warm that a shape-aware gateway polls
	// (-advertise), on the metrics listener.
	Pprof, Advertise bool
	// WrapConn, when set, wraps every accepted connection before
	// admission: the fault-injection hook.
	WrapConn func(wire.Conn) wire.Conn
	// Log receives the daemon's output; nil discards it.
	Log Logger
}

// Logger receives the daemon's output: Printf for lifecycle and
// per-session lines, Request after every served request.
type Logger interface {
	Printf(format string, args ...any)
	Request(session, peer string, seq int, resp *protocol.Response)
}

// Daemon is one serving instance: New then Serve, or Start then Close.
type Daemon struct {
	cfg Config
	o   *obs.Obs
	srv *protocol.Server
	eng *precompute.Engine // nil without Precompute: always-miss

	sem                           chan struct{}
	waiting                       *obs.Gauge
	busyRejects                   *obs.Counter
	connsTotal, bytesIn, bytesOut *obs.Counter
	lastReject                    atomic.Int64 // unix nanos of the latest BUSY shed

	// serveCtx outlives intake: Serve's escalation cancels it,
	// interrupting sessions wherever they are.
	serveCtx context.Context
	kill     context.CancelFunc
	close    func() error // set by Start
}

// New builds a daemon. Nothing runs and nothing is accepted until
// Serve.
func New(cfg Config) (*Daemon, error) {
	if cfg.Listener == nil {
		return nil, errors.New("daemon: a listener is required")
	}
	if len(cfg.Matrix) == 0 || len(cfg.Matrix[0]) == 0 {
		return nil, errors.New("daemon: the model matrix is empty")
	}
	o := obs.New(0)
	simCfg := maxsim.Config{Width: cfg.Width, AccWidth: 2 * cfg.Width, Signed: true}
	srv, err := protocol.NewServer(simCfg)
	if err != nil {
		return nil, err
	}
	srv.WithObs(o).WithTimeouts(cfg.Timeouts)
	d := &Daemon{cfg: cfg, o: o, srv: srv}
	if cfg.Precompute {
		d.eng, err = precompute.New(precompute.Config{
			Sim:       simCfg,
			PoolSize:  cfg.PrecomputePool,
			MaxShapes: cfg.PrecomputeShapes,
			Metrics:   o.Metrics(),
		})
		if err != nil {
			return nil, fmt.Errorf("precompute engine: %w", err)
		}
		srv.WithPrecompute(d.eng)
		// The client picks the OT mode, so both are admitted up front;
		// other shapes the traffic teaches are admitted on first miss.
		for _, s := range d.modelShapes() {
			d.eng.Admit(s)
		}
	}

	// Registered up front so the first scrape already lists them.
	reg := o.Metrics()
	d.bytesIn = reg.Counter("wire_bytes_in_total", "framed bytes received from clients")
	d.bytesOut = reg.Counter("wire_bytes_out_total", "framed bytes sent to clients")
	d.connsTotal = reg.Counter("connections_total", "TCP connections accepted")
	d.waiting = reg.Gauge("sessions_waiting", "connections queued behind the -max-sessions limit")
	d.busyRejects = reg.Counter("busy_rejects_total", "connections shed with a BUSY frame after the -admission-wait queue deadline")
	if cfg.MaxSessions > 0 {
		d.sem = make(chan struct{}, cfg.MaxSessions)
	}
	// /healthz: overloaded while a BUSY shed is recent (route away),
	// degraded while connections merely queue. The overload window
	// matches the admission wait so it outlives the instant of the shed.
	window := max(cfg.AdmissionWait, time.Second)
	o.SetHealth(func() string {
		if t := d.lastReject.Load(); t != 0 && time.Since(time.Unix(0, t)) < window {
			return obs.HealthOverloaded
		}
		if d.waiting.Value() > 0 {
			return obs.HealthDegraded
		}
		return obs.HealthOK
	})
	return d, nil
}

// Start builds a daemon and serves it in the background until Close.
func Start(cfg Config) (*Daemon, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- d.Serve(ctx) }()
	d.close = sync.OnceValue(func() error {
		stop()
		return <-served
	})
	return d, nil
}

// Close stops a daemon booted by Start (drain, then escalate) and
// returns what Serve returned. Idempotent.
func (d *Daemon) Close() error { return d.close() }

// Registry exposes the live metrics registry.
func (d *Daemon) Registry() *obs.Registry { return d.o.Metrics() }

// ArenaOutstanding reports the frame buffers the serving arena still
// has lent out; zero once every session has ended.
func (d *Daemon) ArenaOutstanding() int64 { return d.srv.ArenaOutstanding() }

// Prefill synchronously fills the model shape's pools to depth n, so a
// run starts warm instead of racing the background refill. A no-op
// without Precompute.
func (d *Daemon) Prefill(n int) error {
	if d.eng == nil {
		return nil
	}
	for _, s := range d.modelShapes() {
		if err := d.eng.Prefill(s, n); err != nil {
			return err
		}
	}
	return nil
}

// modelShapes is the served model's shape in both poolable OT modes.
func (d *Daemon) modelShapes() []precompute.Shape {
	s := precompute.Shape{Rows: len(d.cfg.Matrix), Cols: len(d.cfg.Matrix[0]), Width: d.cfg.Width, Signed: true, Mode: "matvec"}
	pr, b := s, s
	pr.OT, b.OT = "per-round", "batched"
	return []precompute.Shape{pr, b}
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Log != nil {
		d.cfg.Log.Printf(format, args...)
	}
}

// Serve accepts connections until ctx ends (with Once, after one
// connection), then drains and escalates, stops the precompute engine
// and closes the observability surface. It returns the accept error
// that stopped intake, or nil.
func (d *Daemon) Serve(ctx context.Context) error {
	ctx, stopIntake := context.WithCancel(ctx)
	defer stopIntake()
	d.serveCtx, d.kill = context.WithCancel(context.Background())
	defer d.kill()
	ln := d.cfg.Listener
	defer ln.Close()
	context.AfterFunc(ctx, func() { ln.Close() })
	if d.eng != nil {
		d.eng.Start()
		d.logf("precompute engine on (pool=%d per shape, max shapes=%d)",
			d.cfg.PrecomputePool, d.cfg.PrecomputeShapes)
	}
	if ml := d.cfg.MetricsListener; ml != nil {
		hs := &http.Server{Handler: d.httpHandler()}
		go hs.Serve(ml)
		defer hs.Close()
		surface := "/metrics /histz /debug/sessions /healthz"
		if d.cfg.Pprof {
			surface += " /debug/pprof/"
		}
		if d.cfg.Advertise {
			surface += " /shapez"
		}
		d.logf("observability on http://%s (%s)", ml.Addr(), surface)
	}

	var wg sync.WaitGroup
	var acceptErr error
	for {
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				acceptErr = err
			}
			break
		}
		if d.cfg.Once {
			d.handle(ctx, c)
			break
		}
		// One goroutine per client channel.
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.handle(ctx, c)
		}()
	}
	d.logf("intake stopped, draining in-flight sessions (deadline %s)", d.cfg.DrainTimeout)
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(d.cfg.DrainTimeout):
		// Escalation is when metrics are most likely lost, so flush the
		// snapshot (and the shed total) before the kill.
		d.logf("drain deadline %s expired, cancelling in-flight sessions shutdown_busy_rejects=%d",
			d.cfg.DrainTimeout, d.busyRejects.Value())
		d.eng.Stop() // remaining requests fall back inline
		d.logFinalSnapshot()
		d.kill()
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			d.logf("sessions still in flight after cancellation, stopping anyway")
		}
	}
	// A stopped daemon reports zero pooled capacity, not its last warm
	// depths.
	d.eng.Stop()
	d.logFinalSnapshot()
	return acceptErr
}

// acquire takes a session slot. busy means shed for load (the peer is
// owed a BUSY frame); neither admitted nor busy means intake stopped
// while the connection queued.
func (d *Daemon) acquire(ctx context.Context) (admitted, busy bool) {
	if d.sem == nil {
		return true, false
	}
	select {
	case d.sem <- struct{}{}:
		return true, false
	default:
	}
	d.waiting.Add(1)
	defer d.waiting.Add(-1)
	var deadline <-chan time.Time
	if d.cfg.AdmissionWait > 0 {
		t := time.NewTimer(d.cfg.AdmissionWait)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case d.sem <- struct{}{}:
		return true, false
	case <-deadline:
		return false, true
	case <-ctx.Done():
		return false, false
	}
}

// handle serves one connection: admission, then a multiplexed session
// answering any number of requests over one OT setup, each garbled
// under fresh labels.
func (d *Daemon) handle(ctx context.Context, c net.Conn) {
	peer := c.RemoteAddr().String()
	defer c.Close()
	// The session layer recovers panics inside requests; this backstop
	// makes any other panic cost one connection, never the daemon.
	defer func() {
		if r := recover(); r != nil {
			d.o.Metrics().Counter("panics_recovered_total", "panics recovered and converted to per-request errors").Inc()
			d.logf("peer=%s recovered panic in connection handler: %v\n%s", peer, r, debug.Stack())
		}
	}()
	d.connsTotal.Inc()
	var connIn, connOut uint64 // the callbacks run on this goroutine only
	var conn wire.Conn = wire.Observed(wire.NewStreamConn(c),
		func(n int) { d.bytesOut.Add(uint64(n)); connOut += uint64(n) },
		func(n int) { d.bytesIn.Add(uint64(n)); connIn += uint64(n) })
	if d.cfg.WrapConn != nil {
		conn = d.cfg.WrapConn(conn)
	}
	defer conn.Close()
	// Escalation also closes the connection: that frees a handler
	// blocked below the deadline layer, in a stalled wrapper say.
	defer context.AfterFunc(d.serveCtx, func() { conn.Close() })()

	admitted, busy := d.acquire(ctx)
	if busy {
		d.busyRejects.Inc()
		d.lastReject.Store(time.Now().UnixNano())
		// Best effort: a peer too broken to read two dozen bytes in two
		// seconds just gets the close.
		c.SetDeadline(time.Now().Add(2 * time.Second))
		if err := protocol.SendBusy(conn, d.cfg.AdmissionWait); err != nil {
			d.logf("peer=%s busy frame not delivered: %v", peer, err)
		}
		d.logf("peer=%s rejected: busy (max-sessions=%d full past admission-wait=%s)",
			peer, d.cfg.MaxSessions, d.cfg.AdmissionWait)
		return
	}
	if !admitted {
		d.logf("peer=%s rejected: shutting down", peer)
		return
	}
	if d.sem != nil {
		defer func() { <-d.sem }()
	}

	tr := d.o.Traces().StartSession("mux", peer)
	sess, err := d.srv.NewSessionContext(d.serveCtx, conn, protocol.SessionConfig{
		GarbleWorkers: d.cfg.GarbleWorkers, Trace: tr,
	})
	if err != nil {
		d.logf("session=%s peer=%s status=error phase=setup bytes_in=%d bytes_out=%d err=%q",
			tr.ID(), peer, connIn, connOut, err)
		return
	}
	defer sess.Close()
	for {
		resp, err := sess.ServeContext(d.serveCtx, protocol.Request{Matrix: d.cfg.Matrix})
		if errors.Is(err, protocol.ErrSessionEnded) {
			break
		}
		if err != nil {
			d.logf("session=%s peer=%s status=error req=%d bytes_in=%d bytes_out=%d err=%q",
				tr.ID(), peer, sess.Requests(), connIn, connOut, err)
			return
		}
		if d.cfg.Log != nil {
			d.cfg.Log.Request(tr.ID(), peer, sess.Requests()-1, resp)
		}
	}
	tr.SetAttr("requests", fmt.Sprint(sess.Requests()))
	tr.SetAttr("bytes_in", fmt.Sprint(connIn))
	tr.SetAttr("bytes_out", fmt.Sprint(connOut))
	d.logf("session=%s peer=%s status=closed requests=%d bytes_in=%s bytes_out=%s",
		tr.ID(), peer, sess.Requests(), report.Bytes(connIn), report.Bytes(connOut))
}

// MetricsHandler is the observability surface: the obs handler
// (/metrics, /histz, /debug/sessions, /healthz) plus, when pprofOn,
// net/http/pprof under /debug/pprof/. The pprof routes are mounted
// explicitly rather than through DefaultServeMux, so leaving pprofOn
// false really removes the surface.
func MetricsHandler(o *obs.Obs, pprofOn bool) http.Handler {
	h := o.Handler()
	if !pprofOn {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	mux.Handle("/", h)
	return mux
}

// httpHandler is MetricsHandler plus, with Advertise, /shapez: the live
// precompute pools (traffic-learned shapes included) or, without an
// engine, the model shape. Every scrape also samples runtime metrics,
// so a perf regression is explainable from /metrics alone.
func (d *Daemon) httpHandler() http.Handler {
	d.o.EnableRuntimeMetrics()
	h := MetricsHandler(d.o, d.cfg.Pprof)
	if !d.cfg.Advertise {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/shapez", func(w http.ResponseWriter, r *http.Request) {
		var shapes []string
		if d.eng != nil {
			for s := range d.eng.Shapes() {
				shapes = append(shapes, s.String())
			}
		} else {
			for _, s := range d.modelShapes() {
				shapes = append(shapes, s.String())
			}
		}
		sort.Strings(shapes)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"shapes": shapes})
	})
	mux.Handle("/", h)
	return mux
}

// logFinalSnapshot flushes the metrics to the log so a scrape-less
// deployment still keeps the run's totals.
func (d *Daemon) logFinalSnapshot() {
	var sb strings.Builder
	if d.cfg.Log != nil && d.o.Metrics().WritePrometheus(&sb) == nil && sb.Len() > 0 {
		d.logf("final metrics snapshot:\n%s", sb.String())
	}
}

// DemoMatrix is a seeded rows×cols model of small signed words well
// inside the b-bit range, for harnesses that need a model but not a
// particular one.
func DemoMatrix(rows, cols, width int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	limit := min(int64(1)<<(width-2), 64)
	m := make([][]int64, rows)
	for i := range m {
		m[i] = make([]int64, cols)
		for j := range m[i] {
			m[i][j] = rng.Int63n(2*limit+1) - limit
		}
	}
	return m
}
