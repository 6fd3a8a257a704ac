package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"maxelerator/internal/load"
	"maxelerator/internal/obs"
	"maxelerator/internal/ot"
	"maxelerator/internal/paper"
	"maxelerator/internal/sched"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value in the report, not in the JSON
}

// endToEndNames are the metrics BENCHMARK.json gates, in report order.
// slo_met_frac and failed_frac are printed too but not gated: on a
// healthy run they read exactly 1 and 0.
var endToEndNames = []string{
	"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_rps",
	"cpu_ms_per_req", "alloc_bytes_per_req", "allocs_per_req", "peak_heap_mb",
}

// minBeyond is how many samples the tail percentile must leave above it.
const minBeyond = 10

// tail returns the highest whole percentile whose nearest-rank sample
// (load.Summarize's convention, rank (p·n+99)/100) leaves at least
// minBeyond samples above it. With too few samples it falls back to
// the median and says how many lie beyond.
func tail(sorted []float64) (p int, v float64, beyond int) {
	n := len(sorted)
	rank := func(p int) int { return min(max((p*n+99)/100, 1), n) }
	for p = 99; p > 50; p-- {
		if n-rank(p) >= minBeyond {
			break
		}
	}
	return p, sorted[rank(p)-1], n - rank(p)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	slices.Sort(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// elapsed is the window the throughput is taken over: clock start to
// the last completion, and for the open loop at least the schedule.
func (wd *window) elapsed(w workload, run time.Duration) time.Duration {
	d := wd.t1.Sub(wd.t0)
	if w.loop == openLoop {
		d = max(d, run)
	}
	return d
}

func perReq(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

// endToEnd derives the user-visible metrics of an untraced window.
func endToEnd(w workload, wd *window, setups []time.Duration, run time.Duration) []metric {
	ok := wd.sent - wd.failed
	lat := seconds(wd.lat)
	var p50, tailV float64
	tailNote := "no successful request"
	if len(lat) > 0 {
		p50 = load.Summarize(lat).P50Ms
		p, v, beyond := tail(lat)
		tailV = v * 1000
		tailNote = fmt.Sprintf("p%d of %d samples, %d beyond", p, len(lat), beyond)
	}
	setupS := seconds(setups)
	return []metric{
		{"setup_s", setupS[(len(setupS)-1)/2], "s", fmt.Sprintf("median of %d set-ups %.3f", len(setupS), setupS)},
		{"latency_p50_ms", p50, "ms", fmt.Sprintf("%d samples", len(lat))},
		{"latency_tail_ms", tailV, "ms", tailNote},
		{"throughput_rps", float64(ok) / wd.elapsed(w, run).Seconds(), "req/s", offeredNote(w)},
		{"slo_met_frac", perReq(float64(wd.sloMet), wd.sent), "ratio", fmt.Sprintf("limit %v, %d of %d sent", w.slo, wd.sloMet, wd.sent)},
		{"failed_frac", perReq(float64(wd.failed), wd.sent), "ratio", fmt.Sprintf("%d of %d attempted", wd.failed, wd.sent)},
		{"cpu_ms_per_req", perReq(ms(wd.cpu), ok), "ms", "user+sys of both parties"},
		{"alloc_bytes_per_req", perReq(float64(wd.allocBytes), ok), "B", ""},
		{"allocs_per_req", perReq(float64(wd.allocs), ok), "count", ""},
		{"peak_heap_mb", float64(wd.peakHeap) / 1e6, "MB", fmt.Sprintf("max HeapInuse sampled every %v", sampleEvery)},
	}
}

func offeredNote(w workload) string {
	if w.loop == openLoop {
		return fmt.Sprintf("offered %g req/s", w.rate)
	}
	return fmt.Sprintf("closed loop, %d client(s)", w.conns)
}

// layerInput is everything a traced run gathered.
type layerInput struct {
	w        workload
	base, wd *window // untraced baseline and traced windows
	rec      *recorder
	spans    []span // recorded up to the end of the traced window
	served   []served
	iso      *isolation
}

// perLayer derives the per-layer metrics of a traced run.
func perLayer(li layerInput) []metric {
	w, wd, iso := li.w, li.wd, li.iso
	t0 := li.rec.since(wd.t0)
	kids := make(map[int][]span)
	for _, s := range li.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	// A span's self time is its duration minus what its children cover.
	self := func(s span) time.Duration { return s.dur() - covered(s, kids[s.ID]) }

	// The window's requests are the Do calls it started. On oneshot-4x4
	// a request also owns its connection's dial.
	inWindow := make(map[string]bool)
	var doSelf, dials []time.Duration
	for _, s := range li.spans {
		switch {
		case s.Name == "protocol.Client.Dial":
			dials = append(dials, s.dur())
		case s.Name == "protocol.ClientSession.Do" && s.Start >= t0:
			inWindow[s.Req] = true
			if w.loop == oneshotLoop {
				inWindow[strings.SplitN(s.Req, ".", 2)[0]] = true
			}
			doSelf = append(doSelf, self(s))
		}
	}
	n := len(doSelf)

	var serve, serveSelf []time.Duration
	idleRecv := make(map[int]bool) // a session's wait for the next request-open frame
	for _, s := range li.spans {
		if !inWindow[s.Req] {
			continue
		}
		switch s.Name {
		case "protocol.Server.Serve":
			serve, serveSelf = append(serve, s.dur()), append(serveSelf, self(s))
		case "protocol.ServerSession.Serve":
			// Serve blocks until the client opens the request; time it
			// from the end of that first read.
			first := s
			for _, k := range kids[s.ID] {
				if k.Name == "wire.Conn.RecvMsg" && (first.ID == s.ID || k.Start < first.Start) {
					first = k
				}
			}
			if first.ID != s.ID {
				idleRecv[first.ID] = true
			}
			serve = append(serve, time.Duration(s.End-first.End))
			serveSelf = append(serveSelf, self(s))
		}
	}

	var down, up, frames int
	var clientWait, serverWait, send time.Duration
	for _, s := range li.spans {
		if !inWindow[s.Req] || !strings.HasPrefix(s.Name, "wire.") {
			continue
		}
		recv := s.Name == "wire.Conn.RecvMsg"
		switch {
		case s.Side == "client" && recv:
			down += s.Bytes
			clientWait += s.dur()
		case s.Side == "client":
			up += s.Bytes
		case recv && !idleRecv[s.ID]:
			serverWait += s.dur()
		}
		if s.Side == "client" {
			frames++
		}
		if !recv {
			send += s.dur()
		}
	}

	// Integer sums keep the simulated means exact, so they repeat
	// whatever the request count. A request's Stats sum its rows'
	// cycles, stages and idle slots but leave CoreUtilization unset, so
	// it is derived from the slot grid.
	var cycles, stages, idle uint64
	var modeled time.Duration
	var nServed int
	for _, sv := range li.served {
		if sv.at.Before(wd.t0) {
			continue
		}
		nServed++
		cycles += sv.stats.Cycles
		modeled += sv.stats.ModeledTime
		stages += sv.stats.Stages
		idle += sv.stats.IdleSlots
	}
	util := 0.0
	if slots := stages * uint64(iso.cores*sched.CyclesPerStage); slots > 0 {
		util = 1 - float64(idle)/float64(slots)
	}

	hitRatio := 0.0
	if takes := wd.hits + wd.misses; takes > 0 {
		hitRatio = float64(wd.hits) / float64(takes)
	}
	refill := ms(iso.refill)
	h0, _ := wd.snap0.Histogram("precompute_refill_seconds", nil)
	h1, _ := wd.snap1.Histogram("precompute_refill_seconds", nil)
	if c := h1.Count - h0.Count; c > 0 {
		refill = (h1.Sum - h0.Sum) / float64(c) * 1000
	}

	tracedP50 := load.Summarize(seconds(wd.lat)).P50Ms
	basedP50 := load.Summarize(seconds(li.base.lat)).P50Ms
	path := iso.ext + iso.garble + iso.encode + iso.decode + iso.evaluate
	switch {
	case w.loop == oneshotLoop:
		path += iso.baseOT + iso.extSetup
	case w.pool > 0:
		path += iso.bind - iso.garble
	}
	var lateP99 float64
	if len(li.base.late) > 0 {
		lateP99 = load.Summarize(seconds(li.base.late)).P99Ms
	}
	tables := float64(iso.tables)
	return []metric{
		{"protocol.dial_ms", ms(medianOr0(dials)), "ms", fmt.Sprintf("median of %d dials", len(dials))},
		{"protocol.serve_ms", ms(medianOr0(serve)), "ms", "server Serve from request open to return"},
		{"protocol.do_self_ms", ms(meanDur(doSelf)), "ms", "client Do minus its wire calls"},
		{"protocol.serve_self_ms", ms(meanDur(serveSelf)), "ms", "server Serve minus its wire calls"},
		{"protocol.overlap_ratio", ms(path) / tracedP50, "ratio", fmt.Sprintf("isolated request path %.2f ms / traced p50 %.2f ms", ms(path), tracedP50)},
		{"ot.base_ms", ms(iso.baseOT), "ms", fmt.Sprintf("%d base OTs, both sides", ot.Kappa)},
		{"ot.ext_setup_ms", ms(iso.extSetup), "ms", "IKNP setup beyond base OT"},
		{"ot.ext_ms_per_req", ms(iso.ext), "ms", w.ot.String()},
		{"ot.ots_per_req", float64(iso.ots), "count", ""},
		{"ot.bytes_per_req", float64(iso.otBytes), "B", ""},
		{"gc.garble_ms_per_req", ms(iso.garble), "ms", ""},
		{"gc.tables_per_req", tables, "count", ""},
		{"gc.garble_tables_per_s", tables / iso.garble.Seconds(), "1/s", paperNote(w, tables/iso.garble.Seconds(), tables)},
		{"gc.evaluate_ms_per_req", ms(iso.evaluate), "ms", ""},
		{"gc.encode_ms_per_req", ms(iso.encode), "ms", "gc.AppendMaterial"},
		{"gc.decode_ms_per_req", ms(iso.decode), "ms", "gc.UnmarshalMaterial"},
		{"gc.allocs_per_table", iso.allocsPerTable, "count", "during GarbleDotProduct"},
		{"gchash.ns_per_hash", iso.nsPerHash, "ns", ""},
		{"gchash.allocs_per_hash", iso.allocsPerHash, "count", ""},
		{"maxsim.modeled_cycles_per_req", perReq(float64(cycles), nServed), "count", "simulated"},
		{"maxsim.modeled_us_per_req", perReq(float64(modeled.Nanoseconds()), nServed) / 1e3, "us", "simulated"},
		{"maxsim.core_utilization", util, "ratio", "simulated"},
		{"precompute.hit_ratio", hitRatio, "ratio", fmt.Sprintf("%d hits of %d takes", wd.hits, wd.hits+wd.misses)},
		{"precompute.refill_ms_per_entry", refill, "ms", fmt.Sprintf("%d refills in window, else isolated Prefill", h1.Count-h0.Count)},
		{"precompute.min_depth", float64(wd.minDepth), "count", ""},
		{"precompute.bind_ms", ms(iso.bind), "ms", ""},
		{"pipeline.chunks_per_req", perReq(float64(wd.snap1.CounterSum("pipeline_chunks_total", nil)-wd.snap0.CounterSum("pipeline_chunks_total", nil)), n), "count", ""},
		{"pipeline.worker_busy_frac", wd.busyFrac, "ratio", fmt.Sprintf("%d garble workers", w.workers)},
		{"wire.bytes_down_per_req", perReq(float64(down), n), "B", ""},
		{"wire.bytes_up_per_req", perReq(float64(up), n), "B", ""},
		{"wire.frames_per_req", perReq(float64(frames), n), "count", ""},
		{"wire.client_recv_wait_ms_per_req", perReq(ms(clientWait), n), "ms", ""},
		{"wire.server_recv_wait_ms_per_req", perReq(ms(serverWait), n), "ms", ""},
		{"wire.send_ms_per_req", perReq(ms(send), n), "ms", "both sides"},
		{"wire.arena_peak_bytes", float64(gaugeMax(wd.snap1, "bytes_buffered_peak")), "B", ""},
		{"runtime.gc_cycles_per_req", perReq(float64(wd.gcCycles), n), "count", ""},
		{"runtime.gc_pause_ms_per_req", perReq(ms(wd.gcPause), n), "ms", ""},
		{"harness.late_p99_ms", lateP99, "ms", "open-loop dispatch behind due time"},
		{"harness.trace_overhead_frac", tracedP50/basedP50 - 1, "ratio", fmt.Sprintf("traced p50 %.2f ms / untraced %.2f ms", tracedP50, basedP50)},
	}
}

// paperNote sets the software kernel beside Table 2's per-core rates.
func paperNote(w workload, tablesPerS, tables float64) string {
	macs := float64(w.rows * w.cols)
	perMAC := tables / macs
	return fmt.Sprintf("one core = %.0f MAC/s at b=%d; Table 2 per core: TinyGarble %.3g MAC/s, MAXelerator %.3g MAC/s",
		tablesPerS/perMAC, w.width, paper.TinyGarble.PerCoreMACs[w.width], paper.MAXelerator.PerCoreMACs[w.width])
}

func gaugeMax(s *obs.Snapshot, name string) int64 {
	var v int64
	for _, g := range s.Gauges {
		if g.Name == name {
			v = max(v, g.Value)
		}
	}
	return v
}

func medianOr0(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return medianDur(ds)
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// envStamp records where a report was measured.
type envStamp struct {
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func stamp(w workload, seed int64) envStamp {
	return envStamp{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Workload: w.name, Seed: seed}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintln(out, title)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}
