// Command maxd is the cloud-server daemon of Fig. 1: it owns the model
// matrix (the garbler's private input), drives the MAXelerator
// simulator to garble MAC streams, and serves privacy-preserving
// matrix-vector products to connecting clients over TCP.
//
// Usage:
//
//	maxd -listen :7700 -model model.json -b 16 -frac 6
//	maxd -listen :7700 -demo-rows 4 -demo-cols 8   # random demo model
//	maxd -listen :7700 -demo-rows 4 -metrics-addr :7701
//
// The model file holds a JSON array of rows of floats, e.g.
// [[1.0, 2.5], [0.25, -1.5]]. Each accepted connection runs one
// multiplexed protocol session (versioned handshake, one IKNP OT
// setup, then any number of client requests with per-round material
// streaming) and emits structured per-request and per-session log
// lines. -garble-workers sizes the parallel row-garbling pool each
// request garbles under; -max-sessions bounds the sessions in flight.
// Overflow connections queue up to -admission-wait and are then shed
// with a BUSY control frame carrying a retry-after hint (so a loaded
// daemon answers in bounded time instead of stringing clients along);
// -admission-wait 0 restores the old queue-forever behaviour.
//
// With -precompute the daemon runs an offline/online split: background
// workers pre-garble MAC circuits for the model's shape (and for any
// shape the traffic teaches) into bounded per-shape pools of
// single-use entries, so a request that hits the pool pays only OT,
// table streaming and decode online. -precompute-pool sizes each
// shape's pool; -precompute-shapes bounds the distinct shapes held
// before the coldest is evicted. The wire format is identical on hits
// and misses — a cold pool just garbles inline as before.
//
// Every wire operation runs under a per-phase deadline so a stalled or
// vanished client costs one timeout, never a pinned session (and with
// -max-sessions, never a leaked admission slot): -handshake-timeout
// bounds each connection-setup operation (version negotiation, base-OT
// and IKNP extension setup), -io-timeout each steady-state one
// (request open, per-round OT, material streaming, result read). Zero
// disables a deadline.
//
// With -metrics-addr the daemon exposes a live observability surface:
//
//	GET /metrics         Prometheus text exposition (garbling
//	                     throughput, stall cycles, per-core counters,
//	                     OT and session latency histograms, plus
//	                     runtime_* gauges: goroutines, heap occupancy,
//	                     GC cycles and a GC pause histogram, sampled
//	                     fresh at every scrape)
//	GET /debug/sessions  recent session phase traces as JSON
//	GET /healthz         ok | degraded (connections queueing) |
//	                     overloaded (recently shed load; answers 503)
//
// Adding -advertise mounts /shapez on the same address: a JSON list of
// the request shapes this daemon serves warm (the live precompute
// pools with -precompute, the static model shape otherwise), which a
// shape-aware gateway (cmd/maxgw) polls to route sessions toward warm
// pools.
//
// Adding -pprof additionally mounts net/http/pprof under
// /debug/pprof/ on the same address, so CPU, heap and block profiles
// can be pulled from the live daemon:
//
//	go tool pprof http://127.0.0.1:7701/debug/pprof/profile?seconds=10
//
// On SIGINT/SIGTERM the daemon stops accepting, drains in-flight
// sessions up to -drain-timeout, and flushes a final metrics snapshot
// to the log.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"maxelerator/internal/daemon"
	"maxelerator/internal/fixed"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/protocol"
	"maxelerator/internal/report"
)

// daemonConfig gathers every knob of one maxd instance.
type daemonConfig struct {
	listen        string
	modelPath     string
	metricsAddr   string
	width, frac   int
	demoRows      int
	demoCols      int
	seed          int64
	once          bool
	drainTimeout  time.Duration
	garbleWorkers int
	maxSessions   int
	// admissionWait bounds how long a connection may queue behind the
	// -max-sessions limit before being shed with a BUSY frame; <= 0
	// queues without bound (the pre-admission-control behaviour).
	admissionWait time.Duration
	// handshakeTimeout and ioTimeout are the per-phase wire-operation
	// deadlines (see the package comment); zero disables.
	handshakeTimeout time.Duration
	ioTimeout        time.Duration
	// precompute enables the offline/online split: background workers
	// pre-garble MAC circuits for the model's shape so requests hit a
	// warm pool and only pay OT + streaming + decode online.
	precompute       bool
	precomputePool   int
	precomputeShapes int
	// pprof mounts net/http/pprof under /debug/pprof/ on the metrics
	// address, so CPU/heap/block profiles can be pulled from a live
	// daemon. Off by default: profiling endpoints can stall the world
	// and belong behind an explicit operator decision.
	pprof bool
	// advertise mounts /shapez on the metrics address: a JSON list of
	// the request shapes this daemon can serve warm (the precompute
	// pools when -precompute is on, the static model shape otherwise).
	// A shape-aware gateway (cmd/maxgw) polls it to prefer warm
	// backends.
	advertise bool
}

func main() {
	var dc daemonConfig
	flag.StringVar(&dc.listen, "listen", "127.0.0.1:7700", "TCP listen address")
	flag.StringVar(&dc.modelPath, "model", "", "JSON model matrix file (rows of floats)")
	flag.StringVar(&dc.metricsAddr, "metrics-addr", "", "HTTP address for /metrics, /debug/sessions and /healthz (empty disables)")
	flag.IntVar(&dc.width, "b", 16, "operand bit-width (power of two)")
	flag.IntVar(&dc.frac, "frac", 6, "fixed-point fraction bits")
	flag.IntVar(&dc.demoRows, "demo-rows", 0, "serve a random demo model with this many rows")
	flag.IntVar(&dc.demoCols, "demo-cols", 4, "columns of the random demo model")
	flag.Int64Var(&dc.seed, "seed", 1, "random seed for the demo model")
	flag.BoolVar(&dc.once, "once", false, "serve a single session and exit")
	flag.DurationVar(&dc.drainTimeout, "drain-timeout", 10*time.Second, "in-flight session drain deadline on shutdown")
	flag.IntVar(&dc.garbleWorkers, "garble-workers", runtime.NumCPU(), "row-garbling worker pool size per request (1 = sequential)")
	flag.IntVar(&dc.maxSessions, "max-sessions", 0, "concurrent session limit; extra connections queue (0 = unlimited)")
	flag.DurationVar(&dc.admissionWait, "admission-wait", 5*time.Second, "max queue wait behind -max-sessions before a BUSY rejection (0 = queue forever)")
	flag.DurationVar(&dc.handshakeTimeout, "handshake-timeout", 30*time.Second, "per-operation deadline for handshake and OT setup (0 = none)")
	flag.DurationVar(&dc.ioTimeout, "io-timeout", 2*time.Minute, "per-operation deadline for steady-state request I/O (0 = none)")
	flag.BoolVar(&dc.precompute, "precompute", false, "pre-garble MAC circuits in the background so requests serve from a warm pool")
	flag.IntVar(&dc.precomputePool, "precompute-pool", 4, "precomputed entries kept per shape")
	flag.IntVar(&dc.precomputeShapes, "precompute-shapes", 8, "distinct shapes pooled before LRU eviction")
	flag.BoolVar(&dc.pprof, "pprof", false, "mount /debug/pprof/ on the metrics address (requires -metrics-addr)")
	flag.BoolVar(&dc.advertise, "advertise", false, "mount /shapez shape hints on the metrics address (requires -metrics-addr)")
	flag.Parse()

	if err := run(dc); err != nil {
		fmt.Fprintln(os.Stderr, "maxd:", err)
		os.Exit(1)
	}
}

// loadModel reads and validates a model file: the matrix must be
// non-empty and rectangular, with every row non-empty. Validation
// happens here, at load time, so a ragged file is rejected with the
// offending row named instead of failing deep inside a session.
func loadModel(path string) ([][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading model: %w", err)
	}
	var rows [][]float64
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("parsing model: %w", err)
	}
	return rows, validateModel(rows)
}

// validateModel enforces the rectangular-matrix invariant the protocol
// relies on (every row is one MAC chain of identical length).
func validateModel(rows [][]float64) error {
	if len(rows) == 0 {
		return fmt.Errorf("model is empty")
	}
	cols := len(rows[0])
	if cols == 0 {
		return fmt.Errorf("model row 0 is empty")
	}
	for i, row := range rows {
		switch {
		case len(row) == 0:
			return fmt.Errorf("model row %d is empty", i)
		case len(row) != cols:
			return fmt.Errorf("model row %d has %d columns, want %d (ragged matrix)", i, len(row), cols)
		}
	}
	return nil
}

func demoModel(rows, cols int, seed int64, f fixed.Format) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, rows)
	scale := f.Max() / 8
	for i := range out {
		out[i] = make([]float64, cols)
		for j := range out[i] {
			out[i][j] = (2*rng.Float64() - 1) * scale
		}
	}
	return out
}

// traceMACLimit caps the per-request memory-system trace: the trace
// walks every modelled clock cycle, so unboundedly large requests
// would stall the daemon. Skipped requests are logged, not silently
// dropped.
const traceMACLimit = 4096

func run(dc daemonConfig) error {
	switch {
	case dc.pprof && dc.metricsAddr == "":
		return fmt.Errorf("-pprof requires -metrics-addr")
	case dc.advertise && dc.metricsAddr == "":
		return fmt.Errorf("-advertise requires -metrics-addr")
	}
	f := fixed.Format{Width: dc.width, Frac: dc.frac}
	if err := f.Validate(); err != nil {
		return err
	}

	var model [][]float64
	switch {
	case dc.modelPath != "":
		m, err := loadModel(dc.modelPath)
		if err != nil {
			return err
		}
		model = m
	case dc.demoRows > 0:
		model = demoModel(dc.demoRows, dc.demoCols, dc.seed, f)
	default:
		return fmt.Errorf("either -model or -demo-rows is required")
	}

	raw := make([][]int64, len(model))
	for i, row := range model {
		r, err := f.EncodeVector(row)
		if err != nil {
			return fmt.Errorf("model row %d: %w", i, err)
		}
		raw[i] = r
	}

	ln, err := net.Listen("tcp", dc.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	var mln net.Listener
	if dc.metricsAddr != "" {
		if mln, err = net.Listen("tcp", dc.metricsAddr); err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer mln.Close()
	}
	lg := &requestLog{f: f}
	d, err := daemon.New(daemon.Config{
		Listener: ln, MetricsListener: mln,
		Matrix: raw, Width: dc.width, Once: dc.once,
		DrainTimeout: dc.drainTimeout, GarbleWorkers: dc.garbleWorkers,
		MaxSessions: dc.maxSessions, AdmissionWait: dc.admissionWait,
		Timeouts:   protocol.Timeouts{Handshake: dc.handshakeTimeout, IO: dc.ioTimeout},
		Precompute: dc.precompute, PrecomputePool: dc.precomputePool, PrecomputeShapes: dc.precomputeShapes,
		Pprof: dc.pprof, Advertise: dc.advertise,
		Log: lg,
	})
	if err != nil {
		return err
	}
	// The stall trace models through its own simulator on the daemon's
	// registry. Trace is read-only on the simulator, so concurrent
	// sessions may share it.
	lg.sim, err = maxsim.New(maxsim.Config{
		Width: dc.width, AccWidth: 2 * dc.width, Signed: true, Metrics: d.Registry(),
	})
	if err != nil {
		return err
	}
	log.Printf("maxd: serving %d×%d model on %s (b=%d, Q%d.%d fixed point)",
		len(raw), len(raw[0]), ln.Addr(), dc.width, dc.width-dc.frac-1, dc.frac)

	// SIGINT/SIGTERM stops intake; in-flight sessions get -drain-timeout
	// before the daemon cancels them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return d.Serve(ctx)
}

// requestLog is maxd's daemon.Logger: every line goes to the standard
// logger, and each served request gets its §5.1 memory-system trace
// and decoded result logged — the trace's only output.
type requestLog struct {
	f   fixed.Format
	sim *maxsim.Simulator
}

func (l *requestLog) Printf(format string, args ...any) {
	log.Printf("maxd: "+format, args...)
}

// Request models how long the FSM would have stalled on the shared
// output port for this request's MAC stream, then logs the request.
func (l *requestLog) Request(session, peer string, seq int, resp *protocol.Response) {
	st := resp.Stats
	stall := "skipped"
	if st.MACs <= traceMACLimit {
		if tres, err := l.sim.Trace(maxsim.TraceConfig{MACs: int(st.MACs)}); err == nil {
			stall = fmt.Sprintf("%.3f", tres.StallFraction())
		}
	} else {
		log.Printf("maxd: session=%s trace skipped: %d MACs exceed limit %d", session, st.MACs, traceMACLimit)
	}
	dec := make([]float64, len(resp.Values))
	for i, v := range resp.Values {
		dec[i] = l.f.DecodeProduct(v)
	}
	log.Printf("maxd: session=%s peer=%s status=ok req=%d rows=%d macs=%d cycles=%d fpga_time=%s tables=%d table_bytes=%s pcie_time=%s stall_frac=%s",
		session, peer, seq, len(resp.Values), st.MACs, st.Cycles, report.Dur(st.ModeledTime),
		st.TablesGarbled, report.Bytes(st.TableBytes), report.Dur(st.PCIeTime), stall)
	log.Printf("maxd: session=%s req=%d result=%v", session, seq, dec)
}
