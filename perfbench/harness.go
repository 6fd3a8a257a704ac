package main

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/precompute"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// rig is one set-up instance of a workload: the server with its
// registry and optional precompute engine, a loopback listener served
// by the benchmark's own accept loop, and the pre-dialed client
// sessions of the multiplexed workloads.
type rig struct {
	w        workload
	in       *inputs
	rec      *recorder
	obs      *obs.Obs
	srv      *protocol.Server
	eng      *precompute.Engine
	ln       net.Listener
	cli      *protocol.Client
	sessions []*clientConn
	srvWG    sync.WaitGroup
	vec      atomic.Int64

	mu     sync.Mutex
	events []string // set-up and clock ordering, pinned by the tests
	served []served
}

// served is one request the server completed.
type served struct {
	at    time.Time
	stats maxsim.Stats
}

func (w workload) simConfig() maxsim.Config { return maxsim.Config{Width: w.width, Signed: true} }

func (w workload) request(in *inputs) protocol.Request {
	return protocol.Request{Matrix: in.Matrix, OT: w.ot, GarbleWorkers: w.workers}
}

// shape is the precompute pool key the server derives for the request.
func (w workload) shape() precompute.Shape {
	return precompute.Shape{Rows: w.rows, Cols: w.cols, Width: w.width, Signed: true,
		Mode: "matvec", OT: w.ot.String()}
}

// newRig sets a workload up: server and engine construction, pool
// prefill, the dial of every session, and one warm-up request per
// session (one warm-up one-shot per client on oneshot-4x4). The
// warm-up absorbs the tail of base OT that Dial leaves running on the
// server (see README.md), so that cost lands in setup_s and never in a
// latency sample.
func newRig(w workload, in *inputs, rec *recorder) (r *rig, err error) {
	r = &rig{w: w, in: in, rec: rec, obs: obs.New(0)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.srv, err = protocol.NewServer(w.simConfig()); err != nil {
		return r, err
	}
	r.srv.WithObs(r.obs)
	if w.pool > 0 {
		r.eng, err = precompute.New(precompute.Config{Sim: w.simConfig(), PoolSize: w.pool, Metrics: r.obs.Metrics()})
		if err != nil {
			return r, err
		}
		r.srv.WithPrecompute(r.eng)
		sp := rec.start("precompute.Engine.Prefill", "server", "", -1)
		err = r.eng.Prefill(w.shape(), w.pool)
		rec.end(sp, 0)
		if err != nil {
			return r, err
		}
		r.eng.Start()
	}
	if r.cli, err = protocol.NewClient(crand.Reader); err != nil {
		return r, err
	}
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return r, err
	}
	r.srvWG.Add(1)
	go r.acceptLoop()

	if w.loop != oneshotLoop {
		r.sessions = make([]*clientConn, w.conns)
	}
	errs := make([]error, w.conns)
	var wg sync.WaitGroup
	for i := 0; i < w.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ok bool
			if w.loop == oneshotLoop {
				ok, errs[i] = r.oneshot()
			} else {
				if r.sessions[i], errs[i] = r.dial(); errs[i] != nil {
					return
				}
				ok, errs[i] = r.do(r.sessions[i])
			}
			if errs[i] == nil && !ok {
				errs[i] = errors.New("warm-up request returned a wrong result")
			}
			r.event("warmup-returned")
		}()
	}
	wg.Wait()
	return r, errors.Join(errs...)
}

func (r *rig) event(e string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// close tears the rig down and waits for every goroutine it started.
func (r *rig) close() {
	for _, cc := range r.sessions {
		if cc != nil {
			cc.close()
		}
	}
	if r.ln != nil {
		r.ln.Close()
	}
	r.srvWG.Wait()
	r.eng.Stop()
}

func (r *rig) acceptLoop() {
	defer r.srvWG.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return // the listener was closed at teardown
		}
		r.srvWG.Add(1)
		go func() {
			defer r.srvWG.Done()
			r.serveConn(c)
		}()
	}
}

// reqID names request seq on the connection whose client port is key;
// client and server derive the same ID independently.
func reqID(key string, seq int) string { return key + "." + strconv.Itoa(seq) }

func portKey(a net.Addr) string {
	if t, ok := a.(*net.TCPAddr); ok {
		return "c" + strconv.Itoa(t.Port)
	}
	return a.String()
}

// serveConn is the benchmark's server loop for one connection.
func (r *rig) serveConn(raw net.Conn) {
	defer raw.Close()
	key := portKey(raw.RemoteAddr())
	var conn wire.Conn = wire.NewStreamConn(raw)
	var tc *tracedConn
	if r.rec != nil {
		tc = newTracedConn(conn, r.rec, "server")
		conn = tc
	}
	req := r.w.request(r.in)
	if r.w.loop == oneshotLoop {
		id := reqID(key, 0)
		sp := r.rec.start("protocol.Server.Serve", "server", id, -1)
		tc.bind(id, sp)
		resp, err := r.srv.Serve(conn, req)
		r.rec.end(sp, 0)
		r.record(resp, err)
		return
	}
	sp := r.rec.start("protocol.Server.NewSession", "server", key, -1)
	tc.bind(key, sp)
	sess, err := r.srv.NewSession(conn, protocol.SessionConfig{GarbleWorkers: r.w.workers})
	r.rec.end(sp, 0)
	if err != nil {
		r.record(nil, err)
		return
	}
	defer sess.Close()
	for seq := 0; ; seq++ {
		id := reqID(key, seq)
		sp := r.rec.start("protocol.ServerSession.Serve", "server", id, -1)
		tc.bind(id, sp)
		resp, err := sess.Serve(req)
		r.rec.end(sp, 0)
		if errors.Is(err, protocol.ErrSessionEnded) {
			return
		}
		r.record(resp, err)
		if err != nil {
			return
		}
	}
}

func (r *rig) record(resp *protocol.Response, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		// The client sees the same request fail and counts it.
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
		return
	}
	r.served = append(r.served, served{at: time.Now(), stats: resp.Stats})
}

// clientConn is the client's end of one connection.
type clientConn struct {
	raw net.Conn
	tc  *tracedConn // nil when untraced
	cs  *protocol.ClientSession
	key string
	seq int
}

func (r *rig) dial() (*clientConn, error) {
	raw, err := net.Dial("tcp", r.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	cc := &clientConn{raw: raw, key: portKey(raw.LocalAddr())}
	var conn wire.Conn = wire.NewStreamConn(raw)
	if r.rec != nil {
		cc.tc = newTracedConn(conn, r.rec, "client")
		conn = cc.tc
	}
	sp := r.rec.start("protocol.Client.Dial", "client", cc.key, -1)
	cc.tc.bind(cc.key, sp)
	cc.cs, err = r.cli.Dial(conn)
	r.rec.end(sp, 0)
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return cc, nil
}

func (cc *clientConn) close() {
	_ = cc.cs.Close() // the end marker is best effort: the connection closes next either way
	cc.raw.Close()
}

// do runs one request with the next client vector and reports whether
// the result equals the plaintext.
func (r *rig) do(cc *clientConn) (bool, error) {
	k := int(r.vec.Add(1)-1) % numVectors
	id := reqID(cc.key, cc.seq)
	cc.seq++
	sp := r.rec.start("protocol.ClientSession.Do", "client", id, -1)
	cc.tc.bind(id, sp)
	out, err := cc.cs.Do(r.in.Vectors[k])
	r.rec.end(sp, 0)
	if err != nil {
		return false, fmt.Errorf("request %s: %w", id, err)
	}
	return slices.Equal(out, r.in.Want[k]), nil
}

// oneshot runs one request on a fresh connection, from dial to close.
func (r *rig) oneshot() (bool, error) {
	cc, err := r.dial()
	if err != nil {
		return false, err
	}
	defer cc.close()
	return r.do(cc)
}

// window is what one measured window observed.
type window struct {
	t0, t1        time.Time
	lat           []time.Duration // successful requests
	late          []time.Duration // open loop: how late each dispatch ran
	sent, failed  int
	sloMet        int
	cpu           time.Duration
	allocBytes    uint64
	allocs        uint64
	gcCycles      uint32
	gcPause       time.Duration
	peakHeap      uint64
	busyFrac      float64
	minDepth      int
	hits, misses  uint64
	snap0, snap1  *obs.Snapshot
	firstErrLines []string
}

func (wd *window) add(d time.Duration, ok bool, err error, slo time.Duration) {
	wd.sent++
	if err == nil && !ok {
		err = errors.New("result differs from the plaintext A·y")
	}
	if err != nil {
		wd.failed++
		if len(wd.firstErrLines) < 3 {
			wd.firstErrLines = append(wd.firstErrLines, err.Error())
		}
		return
	}
	wd.lat = append(wd.lat, d)
	if d <= slo {
		wd.sloMet++
	}
}

// measure clocks the workload for the given duration. The clock starts
// only here, after newRig returned, so after every warm-up returned.
func (r *rig) measure(run time.Duration) *window {
	runtime.GC()
	wd := &window{}
	samp := r.startSampler()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	wd.hits, wd.misses = r.eng.PoolStats()
	wd.snap0 = r.obs.Metrics().Snapshot()

	r.event("clock-start")
	wd.t0 = time.Now()
	if r.w.loop == openLoop {
		out, late := dispatch(wd.t0, r.in.Arrivals, len(r.sessions), func(k int) (bool, error) {
			return r.do(r.sessions[k])
		})
		for _, o := range out {
			if !o.done {
				o.err = errors.New("never served: every session broke")
			}
			wd.add(o.lat, o.ok, o.err, r.w.slo)
		}
		wd.late = late
	} else {
		r.closedLoop(wd, wd.t0.Add(run))
	}
	wd.t1 = time.Now()

	wd.peakHeap, wd.busyFrac, wd.minDepth = samp.stop()
	runtime.ReadMemStats(&ms1)
	wd.cpu = cpuTime() - cpu0
	wd.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	wd.allocs = ms1.Mallocs - ms0.Mallocs
	wd.gcCycles = ms1.NumGC - ms0.NumGC
	wd.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	h, m := r.eng.PoolStats()
	wd.hits, wd.misses = h-wd.hits, m-wd.misses
	wd.snap1 = r.obs.Metrics().Snapshot()
	return wd
}

// closedLoop runs w.conns clients back to back until the deadline;
// requests in flight at the deadline finish and count.
func (r *rig) closedLoop(wd *window, deadline time.Time) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < r.w.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				var ok bool
				var err error
				if r.w.loop == oneshotLoop {
					ok, err = r.oneshot()
				} else {
					ok, err = r.do(r.sessions[i])
				}
				d := time.Since(start)
				mu.Lock()
				wd.add(d, ok, err, r.w.slo)
				mu.Unlock()
				if err != nil && r.w.loop != oneshotLoop {
					return // a broken session serves no more requests
				}
			}
		}()
	}
	wg.Wait()
}

// outcome is one open-loop arrival's fate.
type outcome struct {
	lat  time.Duration // from the due time to completion
	ok   bool
	err  error
	done bool
}

// dispatch is the open loop: each arrival is queued at its due time
// for whichever of the workers frees up first, and its latency runs
// from the due time, so a stall also charges the requests queued
// behind it. load.Run is not used: it times from goroutine start
// rather than the due time, discards results, and spawns a goroutine
// per arrival where this holds the connection count at the sessions
// dialed.
func dispatch(t0 time.Time, due []float64, workers int, serve func(worker int) (bool, error)) ([]outcome, []time.Duration) {
	out := make([]outcome, len(due))
	late := make([]time.Duration, len(due))
	// One slot per arrival, so the dispatcher never blocks behind busy
	// workers and never falls behind its schedule.
	jobs := make(chan int, len(due))
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ok, err := serve(k)
				at := t0.Add(time.Duration(due[i] * float64(time.Second)))
				out[i] = outcome{lat: time.Since(at), ok: ok, err: err, done: true}
				if err != nil {
					return // a broken session; the other workers drain the queue
				}
			}
		}()
	}
	for i, d := range due {
		at := t0.Add(time.Duration(d * float64(time.Second)))
		time.Sleep(time.Until(at))
		late[i] = time.Since(at)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, late
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler polls the heap, the garbling pool and the precompute pool
// while a window runs.
type sampler struct {
	quit, done chan struct{}
	peak       uint64
	busySum    float64
	busyN      int
	minDepth   int
}

const sampleEvery = 2 * time.Millisecond

func (r *rig) startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{}), minDepth: -1}
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var busy, workers *obs.Gauge
	if r.w.workers > 1 {
		reg := r.obs.Metrics()
		busy = reg.Gauge("garble_workers_busy", "garbling workers currently running a row")
		workers = reg.Gauge("garble_workers", "row-garbling worker pool size")
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			// HeapInuse is heap objects plus the unused part of in-use spans.
			metrics.Read(heap)
			s.peak = max(s.peak, heap[0].Value.Uint64()+heap[1].Value.Uint64())
			if busy != nil && workers.Value() > 0 {
				s.busySum += float64(busy.Value()) / float64(workers.Value())
				s.busyN++
			}
			if r.eng != nil {
				if d := r.eng.Depth(r.w.shape()); s.minDepth < 0 || d < s.minDepth {
					s.minDepth = d
				}
			}
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak HeapInuse, the mean busy
// share of the garbling workers and the lowest pool depth seen.
func (s *sampler) stop() (peak uint64, busyFrac float64, minDepth int) {
	close(s.quit)
	<-s.done
	if s.busyN > 0 {
		busyFrac = s.busySum / float64(s.busyN)
	}
	return s.peak, busyFrac, max(s.minDepth, 0)
}
