package main

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"errors"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"maxelerator/internal/daemon"
	"maxelerator/internal/fixed"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// clientRun is one Dial + Do + Close over a fresh connection — the
// single-request convenience the protocol package used to export.
func clientRun(c *protocol.Client, conn wire.Conn, y []int64) ([]int64, error) {
	cs, err := c.Dial(conn)
	if err != nil {
		return nil, err
	}
	out, err := cs.Do(y)
	if err != nil {
		return nil, err
	}
	if err := cs.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

func TestLoadModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte("[[1, 2], [3, 4]]"), 0o600); err != nil {
		t.Fatal(err)
	}
	m, err := loadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[1][0] != 3 {
		t.Fatalf("model = %v", m)
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := loadModel("/nonexistent.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := loadModel(write("empty.json", "[]")); err == nil {
		t.Fatal("empty model accepted")
	}
	if _, err := loadModel(write("bad.json", "nope")); err == nil {
		t.Fatal("malformed model accepted")
	}
	// Ragged and empty rows must be rejected at load time with the
	// offending row named, not deep inside a session.
	_, err := loadModel(write("ragged.json", "[[1, 2], [3], [4, 5]]"))
	if err == nil {
		t.Fatal("ragged model accepted")
	}
	if !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("ragged error does not name the row: %v", err)
	}
	_, err = loadModel(write("emptyrow.json", "[[1, 2], []]"))
	if err == nil {
		t.Fatal("empty row accepted")
	}
	if !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("empty-row error does not name the row: %v", err)
	}
	if _, err := loadModel(write("emptyfirst.json", "[[]]")); err == nil {
		t.Fatal("empty first row accepted")
	}
}

func TestValidateModel(t *testing.T) {
	if err := validateModel([][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := validateModel([][]float64{{1}, {2, 3}}); err == nil ||
		!strings.Contains(err.Error(), "ragged") {
		t.Fatalf("ragged matrix error = %v", err)
	}
}

func TestDemoModelShapeAndRange(t *testing.T) {
	f := fixed.Format{Width: 16, Frac: 6}
	m := demoModel(3, 5, 42, f)
	if len(m) != 3 || len(m[0]) != 5 {
		t.Fatalf("shape %dx%d", len(m), len(m[0]))
	}
	for _, row := range m {
		for _, v := range row {
			if math.Abs(v) > f.Max()/8 {
				t.Fatalf("demo value %v outside scale", v)
			}
		}
	}
	// Deterministic per seed.
	if demoModel(3, 5, 42, f)[0][0] != m[0][0] {
		t.Fatal("demo model not reproducible")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(daemonConfig{listen: "127.0.0.1:0", width: 16, frac: 40, demoRows: 2, demoCols: 2, seed: 1, once: true}); err == nil {
		t.Fatal("bad fixed-point format accepted")
	}
	if err := run(daemonConfig{listen: "127.0.0.1:0", width: 16, frac: 6, seed: 1, once: true}); err == nil {
		t.Fatal("missing model accepted")
	}
	if err := run(daemonConfig{listen: "256.0.0.1:99999", width: 16, frac: 6, demoRows: 2, demoCols: 2, seed: 1, once: true}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if err := run(daemonConfig{listen: "127.0.0.1:0", metricsAddr: "256.0.0.1:99999", width: 16, frac: 6, demoRows: 2, demoCols: 2, seed: 1, once: true}); err == nil {
		t.Fatal("bad metrics address accepted")
	}
}

// freePort grabs an ephemeral port and frees it for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func dialWire(t *testing.T, addr string) wire.Conn {
	t.Helper()
	for i := 0; i < 200; i++ {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return wire.NewStreamConn(c)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("maxd did not come up")
	return nil
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	var lastErr error
	for i := 0; i < 200; i++ {
		resp, err := http.Get(url)
		if err == nil {
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %s", url, resp.Status)
			}
			return string(body)
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("GET %s never succeeded: %v", url, lastErr)
	return ""
}

func TestServeOneSessionEndToEnd(t *testing.T) {
	// Boot maxd on an ephemeral port in -once mode and run a real
	// client against it.
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(daemonConfig{listen: addr, width: 8, frac: 3, demoRows: 2, demoCols: 2, seed: 7, once: true, drainTimeout: 5 * time.Second})
	}()

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	defer conn.Close()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	out, err := clientRun(cli, conn, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d outputs", len(out))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMetricsSurfaceUpBeforeSessions checks the sidecar comes up with
// the daemon and serves an empty (but well-formed) surface before any
// client connects; in -once mode the daemon still exits cleanly.
func TestMetricsSurfaceUpBeforeSessions(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(daemonConfig{listen: addr, metricsAddr: maddr, width: 8, frac: 3, demoRows: 2, demoCols: 2, seed: 7, once: true, drainTimeout: 5 * time.Second})
	}()

	if body := httpGet(t, "http://"+maddr+"/healthz"); body != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}
	before := httpGet(t, "http://"+maddr+"/metrics")
	if strings.Contains(before, "sessions_total") {
		t.Fatalf("sessions_total present before any session:\n%s", before)
	}
	// Byte counters are registered (zero) from boot so dashboards can
	// discover them before traffic arrives.
	if !strings.Contains(before, "wire_bytes_in_total 0") {
		t.Fatalf("wire counters not pre-registered:\n%s", before)
	}

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientRun(cli, conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMetricsCountersMoveAndSpansRecorded(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	proc, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		done <- run(daemonConfig{listen: addr, metricsAddr: maddr, width: 8, frac: 3, demoRows: 2, demoCols: 2, seed: 7, drainTimeout: 5 * time.Second})
	}()

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientRun(cli, conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Poll /metrics until the session lands (the server goroutine may
	// still be finishing when the client returns).
	var body string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		body = httpGet(t, "http://"+maddr+"/metrics")
		if strings.Contains(body, `sessions_total{kind="mux"} 1`) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		`sessions_total{kind="mux"} 1`,
		"sessions_active 0",
		"macs_total 4", // 2 rows × 2 cols
		"connections_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Counters that must have moved off zero.
	for _, name := range []string{
		"cycles_total", "tables_garbled_total", "table_bytes_total",
		"trace_cycles_total", "wire_bytes_in_total", "wire_bytes_out_total",
	} {
		if !counterMoved(body, name) {
			t.Fatalf("counter %s did not move:\n%s", name, body)
		}
	}
	for _, want := range []string{
		// stall_cycles_total is exposed even when the tiny demo session
		// never saturates the output port (value may be 0 here; the
		// stalling path is pinned by internal/maxsim tests).
		"# TYPE stall_cycles_total counter",
		"# TYPE ot_setup_seconds histogram",
		"# TYPE session_seconds histogram",
		"ot_setup_seconds_count 1",
		`core_idle_slots_total{core="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/sessions: the completed session must show the span
	// taxonomy with non-zero monotonic durations.
	var parsed struct {
		Sessions []obs.SessionSnapshot `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+maddr+"/debug/sessions")), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Sessions) != 1 {
		t.Fatalf("%d sessions in debug surface", len(parsed.Sessions))
	}
	s := parsed.Sessions[0]
	if !s.Done || s.Err != "" || s.DurationUS <= 0 {
		t.Fatalf("session %+v", s)
	}
	spans := map[string]int64{}
	for _, sp := range s.Spans {
		spans[sp.Name] = sp.DurationUS
	}
	for _, phase := range []string{"handshake", "ot_setup", "rounds", "decode"} {
		d, ok := spans[phase]
		if !ok {
			t.Fatalf("span %s missing: %+v", phase, s.Spans)
		}
		if d < 0 {
			t.Fatalf("span %s left open", phase)
		}
	}
	if spans["ot_setup"] <= 0 || spans["rounds"] <= 0 {
		t.Fatalf("crypto phases report zero duration: %+v", spans)
	}
	if s.Attrs["bytes_in"] == "" || s.Attrs["bytes_out"] == "" {
		t.Fatalf("byte attrs missing: %+v", s.Attrs)
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly.
	if err := proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestHandshakeTimeoutFreesSessionSlot is the peer-stall regression at
// the daemon level: with -max-sessions 1, a client that connects and
// then goes silent must not pin the only slot forever. The handshake
// deadline fires, the session errors out, the slot is released, and a
// real client queued behind it completes. On the pre-deadline code the
// silent connection held the slot indefinitely and this test hung.
func TestHandshakeTimeoutFreesSessionSlot(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	proc, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		done <- run(daemonConfig{
			listen: addr, width: 8, frac: 3, demoRows: 2, demoCols: 2,
			seed: 7, drainTimeout: 5 * time.Second, maxSessions: 1,
			// The budget must sit comfortably above the genuine base-OT
			// compute gap (~0.5s on a 1-CPU runner) so only the silent
			// peer times out, never the legitimate queued client.
			handshakeTimeout: 3 * time.Second, ioTimeout: 20 * time.Second,
		})
	}()

	// The stalled peer: connect, say nothing, keep the conn open so the
	// server cannot learn of the stall from a disconnect.
	silent := dialWire(t, addr)
	defer silent.Close()

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	defer conn.Close()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cli.WithTimeouts(protocol.Timeouts{Handshake: 20 * time.Second, IO: 20 * time.Second})
	type res struct {
		out []int64
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := clientRun(cli, conn, raw)
		ch <- res{out, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("queued client failed: %v", r.err)
		}
		if len(r.out) != 2 {
			t.Fatalf("got %d outputs", len(r.out))
		}
	case <-time.After(15 * time.Second):
		t.Fatal("queued client never ran: stalled peer still holds the -max-sessions slot")
	}

	if err := proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// httpGetStatus is httpGet without the 200 assertion — overload probes
// expect a 503.
func httpGetStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := http.Get(url)
		if err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(body)
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("GET %s never succeeded: %v", url, lastErr)
	return 0, ""
}

// TestAdmissionWaitShedsLoadWithBusy: with -max-sessions full past
// -admission-wait, an overflow connection receives a BUSY frame with
// the retry hint in bounded time — never an indefinite queue — while
// /healthz walks degraded (queueing) → overloaded (rejecting, 503) and
// busy_rejects_total counts the shed.
func TestAdmissionWaitShedsLoadWithBusy(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	const wait = time.Second
	done := make(chan error, 1)
	proc, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		done <- run(daemonConfig{
			listen: addr, metricsAddr: maddr, width: 8, frac: 3,
			demoRows: 2, demoCols: 2, seed: 7, drainTimeout: 5 * time.Second,
			maxSessions: 1, admissionWait: wait,
			handshakeTimeout: 20 * time.Second, ioTimeout: 20 * time.Second,
		})
	}()

	// The slot holder: a silent connection occupying the only session
	// slot for the duration (its handshake budget outlives the test).
	silent := dialWire(t, addr)
	defer silent.Close()
	// Wait until the holder actually owns the slot (the server's hello
	// arrives once its session starts), so the next dial queues.
	if _, err := silent.RecvMsg(); err != nil {
		t.Fatalf("slot holder never saw the server hello: %v", err)
	}

	conn := dialWire(t, addr)
	defer conn.Close()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		err     error
		elapsed time.Duration
	}
	ch := make(chan res, 1)
	go func() {
		start := time.Now()
		_, derr := cli.Dial(conn)
		ch <- res{derr, time.Since(start)}
	}()

	// While the overflow connection queues, /healthz reports degraded.
	sawDegraded := false
	for deadline := time.Now().Add(wait); time.Now().Before(deadline); {
		if _, body := httpGetStatus(t, "http://"+maddr+"/healthz"); strings.TrimSpace(body) == obs.HealthDegraded {
			sawDegraded = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	r := <-ch
	if r.err == nil {
		t.Fatal("overflow dial succeeded with the only slot held")
	}
	if !errors.Is(r.err, protocol.ErrServerBusy) {
		t.Fatalf("overflow dial error = %v, want ErrServerBusy", r.err)
	}
	var be *protocol.BusyError
	if !errors.As(r.err, &be) {
		t.Fatalf("overflow dial error = %T, want *BusyError", r.err)
	}
	if be.RetryAfter != wait {
		t.Errorf("RetryAfter = %v, want the admission wait %v", be.RetryAfter, wait)
	}
	// "Never a hang": the rejection arrives around the admission wait,
	// with generous CI slack, not after an unbounded queue.
	if r.elapsed > wait+10*time.Second {
		t.Errorf("BUSY rejection took %v (admission wait %v)", r.elapsed, wait)
	}
	if !sawDegraded {
		t.Error("healthz never reported degraded while the connection queued")
	}

	// Immediately after the rejection the daemon is overloaded: 503.
	code, body := httpGetStatus(t, "http://"+maddr+"/healthz")
	if code != http.StatusServiceUnavailable || strings.TrimSpace(body) != obs.HealthOverloaded {
		t.Errorf("healthz after rejection = %d %q, want 503 %q", code, body, obs.HealthOverloaded)
	}
	if metrics := httpGet(t, "http://"+maddr+"/metrics"); !strings.Contains(metrics, "busy_rejects_total 1") {
		t.Errorf("/metrics missing busy_rejects_total 1:\n%s", metrics)
	}

	// Free the slot so shutdown drains promptly, then stop the daemon.
	silent.Close()
	if err := proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// counterMoved reports whether the exposition shows a non-zero value
// for the given counter family.
func counterMoved(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}

// TestPrecomputeWarmPoolServesAndDrainsOnShutdown boots maxd with the
// offline/online split on, waits for the background workers to warm
// the model's pool, serves one real client from it, and checks the
// shutdown invariant of ISSUE 5: the final metrics snapshot reports
// the hit and zero pooled capacity — no phantom entries survive the
// daemon.
func TestPrecomputeWarmPoolServesAndDrainsOnShutdown(t *testing.T) {
	var logBuf syncBuffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(os.Stderr)

	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(daemonConfig{
			listen: addr, metricsAddr: maddr, width: 8, frac: 3,
			demoRows: 2, demoCols: 2, seed: 7, once: true,
			drainTimeout: 5 * time.Second,
			precompute:   true, precomputePool: 1, precomputeShapes: 4,
		})
	}()

	// Wait for the refill workers to warm the admitted shape.
	const depthLine = `precompute_pool_depth{shape="2x2/b8s/matvec/per-round"} 1`
	warm := false
	for i := 0; i < 500 && !warm; i++ {
		warm = strings.Contains(httpGet(t, "http://"+maddr+"/metrics"), depthLine)
		if !warm {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !warm {
		t.Fatal("pool never warmed for the model shape")
	}

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientRun(cli, conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The final snapshot (after engine Stop) must show the hit and a
	// fully drained pool.
	logs := logBuf.String()
	snap := logs[strings.LastIndex(logs, "final metrics snapshot"):]
	if !strings.Contains(snap, `precompute_hits_total{shape="2x2/b8s/matvec/per-round"} 1`) {
		t.Fatalf("warm pool did not serve the request:\n%s", snap)
	}
	if !strings.Contains(snap, `precompute_pool_depth{shape="2x2/b8s/matvec/per-round"} 0`) {
		t.Fatalf("pool depth not drained to zero at shutdown:\n%s", snap)
	}
	if !strings.Contains(snap, "precompute_shapes 0") {
		t.Fatalf("shapes gauge not drained to zero at shutdown:\n%s", snap)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: run's goroutine logs
// concurrently with the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMetricsHandlerPprofGating: the pprof surface exists only behind
// the flag — a daemon without -pprof must 404 every /debug/pprof path.
// TestAdvertiseShapezEndpoint: -advertise mounts /shapez on the
// metrics address with the shapes the daemon serves warm — with
// -precompute, the model shape pre-admitted in both poolable OT modes
// at boot. This is the surface maxgw's prober folds into routing.
func TestAdvertiseShapezEndpoint(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(daemonConfig{listen: addr, metricsAddr: maddr, width: 8, frac: 3,
			demoRows: 2, demoCols: 2, seed: 7, once: true, drainTimeout: 5 * time.Second,
			precompute: true, precomputePool: 1, precomputeShapes: 4, advertise: true})
	}()

	body := httpGet(t, "http://"+maddr+"/shapez")
	var payload struct {
		Shapes []string `json:"shapes"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("parsing /shapez %q: %v", body, err)
	}
	for _, want := range []string{"2x2/b8s/matvec/per-round", "2x2/b8s/matvec/batched"} {
		found := false
		for _, s := range payload.Shapes {
			found = found || s == want
		}
		if !found {
			t.Fatalf("/shapez = %v, missing %q", payload.Shapes, want)
		}
	}
	// /metrics still answers on the same address next to /shapez.
	if !strings.Contains(httpGet(t, "http://"+maddr+"/metrics"), "precompute_pool_depth") {
		t.Fatal("/metrics lost behind the advertise mux")
	}

	// Serve the one -once session so the daemon exits cleanly.
	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	defer conn.Close()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cli.Dial(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Do(raw); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAdvertiseRequiresMetricsAddr: /shapez lives on the metrics mux,
// so -advertise without -metrics-addr is a config error, not a silent
// no-op a gateway would probe forever.
func TestAdvertiseRequiresMetricsAddr(t *testing.T) {
	err := run(daemonConfig{listen: freePort(t), width: 8, frac: 3, demoRows: 2,
		demoCols: 2, once: true, advertise: true})
	if err == nil || !strings.Contains(err.Error(), "-metrics-addr") {
		t.Fatalf("err = %v, want a -metrics-addr requirement", err)
	}
}

func TestMetricsHandlerPprofGating(t *testing.T) {
	o := obs.New(0)
	o.Metrics().Counter("gating_probe_total", "registered so /metrics has a body").Inc()
	plain := httptest.NewServer(daemon.MetricsHandler(o, false))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -pprof = %s, want 404", resp.Status)
	}

	profiled := httptest.NewServer(daemon.MetricsHandler(o, true))
	defer profiled.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap", "/metrics", "/healthz"} {
		resp, err := http.Get(profiled.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with -pprof = %s", path, resp.Status)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s returned an empty body", path)
		}
	}
}

// TestPprofRequiresMetricsAddr: the flag is meaningless without the
// sidecar, so the daemon refuses the combination instead of silently
// profiling nothing.
func TestPprofRequiresMetricsAddr(t *testing.T) {
	err := run(daemonConfig{listen: "127.0.0.1:0", width: 8, frac: 3, demoRows: 2, demoCols: 2, seed: 1, once: true, pprof: true})
	if err == nil || !strings.Contains(err.Error(), "-metrics-addr") {
		t.Fatalf("err = %v, want -pprof requires -metrics-addr", err)
	}
}

// TestRuntimeMetricsAndPprofEndToEnd boots maxd with -metrics-addr and
// -pprof and checks the acceptance surface: /metrics exposes the
// runtime collector families and /debug/pprof/profile yields a usable
// CPU profile capture from the live daemon.
func TestRuntimeMetricsAndPprofEndToEnd(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(daemonConfig{listen: addr, metricsAddr: maddr, pprof: true,
			width: 8, frac: 3, demoRows: 2, demoCols: 2, seed: 7, once: true, drainTimeout: 5 * time.Second})
	}()

	metrics := httpGet(t, "http://"+maddr+"/metrics")
	for _, want := range []string{
		"runtime_goroutines ",
		"runtime_heap_inuse_bytes ",
		"runtime_gc_pause_seconds_bucket",
		"runtime_gc_cycles_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// A one-second CPU capture through the live daemon: the pprof proto
	// payload is gzip-framed (0x1f 0x8b) and non-trivial.
	profile := httpGet(t, "http://"+maddr+"/debug/pprof/profile?seconds=1")
	if len(profile) < 2 || profile[0] != 0x1f || byte(profile[1]) != 0x8b {
		t.Fatalf("profile capture not a gzip pprof payload (%d bytes)", len(profile))
	}

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientRun(cli, conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
