package daemon

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
	"maxelerator/internal/wire/faultconn"
)

var testMatrix = [][]int64{{2, 3}, {-4, 5}}

// harness is one daemon under test plus the baseline its leak checks
// compare against.
type harness struct {
	t          *testing.T
	d          *Daemon
	addr       string
	health     string
	goroutines int
}

func boot(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{t: t, goroutines: runtime.NumGoroutine()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Listener, cfg.MetricsListener = ln, mln
	cfg.Matrix, cfg.Width = testMatrix, 8
	if h.d, err = Start(cfg); err != nil {
		t.Fatal(err)
	}
	h.addr, h.health = ln.Addr().String(), "http://"+mln.Addr().String()+"/healthz"
	return h
}

// closeAndCheck stops the daemon and asserts it left nothing behind:
// no goroutines above the pre-boot baseline, no session counted
// active, no arena buffer lent out.
func (h *harness) closeAndCheck() {
	h.t.Helper()
	h.d.Close()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > h.goroutines && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > h.goroutines {
		h.t.Errorf("%d goroutines after Close, %d before boot", n, h.goroutines)
	}
	if v := h.gauge("sessions_active"); v != 0 {
		h.t.Errorf("sessions_active = %d after Close, want 0", v)
	}
	if v := h.d.ArenaOutstanding(); v != 0 {
		h.t.Errorf("%d arena buffers outstanding after Close, want 0", v)
	}
}

func (h *harness) gauge(name string) int64 { return h.d.Registry().Gauge(name, "").Value() }

func (h *harness) counter(name string) uint64 { return h.d.Registry().Counter(name, "").Value() }

// waitFor polls cond for up to ten seconds.
func (h *harness) waitFor(what string, cond func() bool) {
	h.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			h.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (h *harness) dial() net.Conn {
	h.t.Helper()
	c, err := net.Dial("tcp", h.addr)
	if err != nil {
		h.t.Fatal(err)
	}
	return c
}

// healthz fetches /healthz without keep-alive, so no client connection
// outlives the call.
func (h *harness) healthz() (int, string) {
	h.t.Helper()
	cli := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := cli.Get(h.health)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, strings.TrimSpace(string(body))
}

// opening is the union of the two frames a daemon can open with: gob
// matches fields by name, so a hello sets ProtoVersion and a BUSY frame
// sets Busy.
type opening struct {
	ProtoVersion     int
	Busy             bool
	RetryAfterMillis int64
}

// firstFrame reads the daemon's opening frame on a raw connection.
func firstFrame(c net.Conn) (opening, error) {
	var o opening
	msg, err := wire.NewStreamConn(c).RecvMsg()
	if err != nil {
		return o, err
	}
	return o, gob.NewDecoder(bytes.NewReader(msg)).Decode(&o)
}

// admitted asserts c was admitted: the daemon opened with its hello.
func (h *harness) admitted(c net.Conn) {
	h.t.Helper()
	o, err := firstFrame(c)
	if err != nil || o.Busy || o.ProtoVersion == 0 {
		h.t.Fatalf("want a hello, got %+v, %v", o, err)
	}
}

// silent asserts nothing arrives on c for d: it is still queued.
func (h *harness) silent(c net.Conn, d time.Duration) {
	h.t.Helper()
	c.SetReadDeadline(time.Now().Add(d))
	var b [1]byte
	if n, err := c.Read(b[:]); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		h.t.Fatalf("queued connection got %d bytes, %v; want nothing", n, err)
	}
	c.SetReadDeadline(time.Time{})
}

// TestAdmission walks the one admission controller through each of
// its outcomes with a single session slot, held by a silent peer.
func TestAdmission(t *testing.T) {
	for _, tc := range []struct {
		name string
		wait time.Duration
		run  func(h *harness)
	}{
		{"free slot", time.Second, func(h *harness) {
			// A real session through the slot, answer checked.
			conn := wire.NewStreamConn(h.dial())
			defer conn.Close()
			cli, err := protocol.NewClient(rand.Reader)
			if err != nil {
				h.t.Fatal(err)
			}
			cs, err := cli.Dial(conn)
			if err != nil {
				h.t.Fatal(err)
			}
			out, err := cs.Do([]int64{5, -6})
			if err != nil {
				h.t.Fatal(err)
			}
			if err := cs.Close(); err != nil {
				h.t.Fatal(err)
			}
			if want := []int64{2*5 - 3*6, -4*5 - 5*6}; out[0] != want[0] || out[1] != want[1] {
				h.t.Fatalf("answer %v, want %v", out, want)
			}
		}},
		{"queue then admit", 10 * time.Second, func(h *harness) {
			holder := h.dial()
			h.admitted(holder)
			probe := h.dial()
			defer probe.Close()
			h.waitFor("the probe to queue", func() bool { return h.gauge("sessions_waiting") == 1 })
			if code, body := h.healthz(); code != http.StatusOK || body != "degraded" {
				h.t.Errorf("healthz while queueing = %d %q, want 200 degraded", code, body)
			}
			holder.Close()
			h.admitted(probe)
		}},
		{"queue past the wait", 200 * time.Millisecond, func(h *harness) {
			holder := h.dial()
			defer holder.Close()
			h.admitted(holder)
			probe := h.dial()
			defer probe.Close()
			o, err := firstFrame(probe)
			if err != nil || !o.Busy || o.RetryAfterMillis != 200 {
				h.t.Fatalf("want a BUSY frame with a 200 ms hint, got %+v, %v", o, err)
			}
			h.waitFor("the shed to be counted", func() bool { return h.counter("busy_rejects_total") == 1 })
			if code, body := h.healthz(); code != http.StatusServiceUnavailable || body != "overloaded" {
				h.t.Errorf("healthz after the shed = %d %q, want 503 overloaded", code, body)
			}
		}},
		{"wait 0 queues without bound", 0, func(h *harness) {
			holder := h.dial()
			h.admitted(holder)
			probe := h.dial()
			defer probe.Close()
			h.waitFor("the probe to queue", func() bool { return h.gauge("sessions_waiting") == 1 })
			h.silent(probe, 1500*time.Millisecond)
			if v := h.counter("busy_rejects_total"); v != 0 {
				h.t.Fatalf("busy_rejects_total = %d, want 0", v)
			}
			holder.Close()
			h.admitted(probe)
		}},
		{"shutdown while queued", 0, func(h *harness) {
			holder := h.dial()
			defer holder.Close()
			h.admitted(holder)
			probe := h.dial()
			defer probe.Close()
			h.waitFor("the probe to queue", func() bool { return h.gauge("sessions_waiting") == 1 })
			h.d.Close()
			if o, err := firstFrame(probe); err == nil {
				h.t.Fatalf("queued connection got %+v at shutdown, want a bare close", o)
			}
			if v := h.counter("busy_rejects_total"); v != 0 {
				h.t.Fatalf("busy_rejects_total = %d, want 0", v)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := boot(t, Config{
				MaxSessions: 1, AdmissionWait: tc.wait, DrainTimeout: 100 * time.Millisecond,
				Timeouts: protocol.Timeouts{Handshake: 20 * time.Second, IO: 20 * time.Second},
			})
			tc.run(h)
			h.closeAndCheck()
		})
	}
}

// TestPanicContained: a panic while serving one connection costs that
// connection only; the daemon goes on accepting.
func TestPanicContained(t *testing.T) {
	var calls atomic.Int32
	h := boot(t, Config{WrapConn: func(c wire.Conn) wire.Conn {
		if calls.Add(1) == 1 {
			panic("injected")
		}
		return c
	}})
	first := h.dial()
	defer first.Close()
	if o, err := firstFrame(first); err == nil {
		t.Fatalf("panicking connection got %+v, want a close", o)
	}
	if v := h.counter("panics_recovered_total"); v != 1 {
		t.Fatalf("panics_recovered_total = %d, want 1", v)
	}
	second := h.dial()
	defer second.Close()
	h.admitted(second)
	second.Close()
	h.closeAndCheck()
}

// TestDrainThenEscalate: a peer that never answers holds its session
// through the drain deadline; escalation then cuts it, whether it
// blocks on a plain socket or below the deadline layer in a stalled
// wrapper that only a close frees.
func TestDrainThenEscalate(t *testing.T) {
	const drain = 300 * time.Millisecond
	for _, tc := range []struct {
		name string
		wrap func(wire.Conn) wire.Conn
	}{
		{"silent peer", nil},
		{"stalled wrapper", func(c wire.Conn) wire.Conn {
			return faultconn.New(c, faultconn.Options{StallFirstRead: true})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// No wire deadlines: only escalation can end the session.
			h := boot(t, Config{DrainTimeout: drain, WrapConn: tc.wrap})
			peer := h.dial()
			defer peer.Close()
			h.admitted(peer)
			start := time.Now()
			h.d.Close()
			if took := time.Since(start); took < drain || took > drain+5*time.Second {
				t.Errorf("Close took %v, want the %v drain then a prompt cancel", took, drain)
			}
			peer.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := peer.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("escalation left the peer's connection open: %v", err)
			}
			h.closeAndCheck()
		})
	}
}
