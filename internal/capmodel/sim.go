package capmodel

import (
	"container/heap"
	"math/rand"

	"maxelerator/internal/load"
)

// Fleet describes the serving configuration under simulation — the
// knobs an operator actually turns on maxd/maxgw.
type Fleet struct {
	// Backends is the number of maxd instances behind the gateway;
	// sessions route round-robin (the gateway's least-loaded choice
	// converges to round-robin under a uniform mix).
	Backends int `json:"backends"`
	// MaxSessions is each backend's -max-sessions; 0 = unlimited.
	MaxSessions int `json:"max_sessions"`
	// AdmissionWaitSec is each backend's -admission-wait in seconds;
	// with MaxSessions > 0, a session queuing longer is shed BUSY, and
	// 0 queues without bound.
	AdmissionWaitSec float64 `json:"admission_wait_sec"`
	// CPUs is the compute parallelism per backend: concurrent OT
	// setups plus request services in flight (default 1).
	CPUs int `json:"cpus"`
	// PoolDepth is the precompute pool size per shape (-precompute-pool);
	// 0 disables the pool (every request garbles inline).
	PoolDepth int `json:"pool_depth"`
	// RefillWorkers is the background pre-garbling parallelism per
	// backend (default 1, matching the engine's default).
	RefillWorkers int `json:"refill_workers"`
	// WarmStart begins the run with every shape's pool at full depth —
	// a daemon that has been up for a while; false models a cold boot.
	WarmStart bool `json:"warm_start"`
}

func (f Fleet) withDefaults() Fleet {
	if f.Backends <= 0 {
		f.Backends = 1
	}
	if f.CPUs <= 0 {
		f.CPUs = 1
	}
	if f.RefillWorkers <= 0 {
		f.RefillWorkers = 1
	}
	return f
}

// Result is the simulator's prediction, shaped like the live
// generator's report plus simulation-only visibility.
type Result struct {
	load.Report
	// Fleet echoes the simulated configuration.
	Fleet Fleet `json:"fleet"`
	// CalibrationSource names where service times came from.
	CalibrationSource string `json:"calibration_source"`
	// StageMeans are the calibration's stage means (seconds).
	StageMeans map[string]float64 `json:"stage_means"`
	// MeanAdmissionWaitMs is the average time admitted sessions spent
	// queued behind MaxSessions.
	MeanAdmissionWaitMs float64 `json:"mean_admission_wait_ms"`
	// MeanCPUWaitMs is the average time jobs queued for a CPU slot.
	MeanCPUWaitMs float64 `json:"mean_cpu_wait_ms"`
	// CPUUtilization is busy CPU-seconds over available CPU-seconds
	// across the arrival window.
	CPUUtilization float64 `json:"cpu_utilization"`
}

// event is one scheduled state transition. seq breaks time ties
// deterministically: equal-time events fire in scheduling order.
type event struct {
	at   float64
	seq  int
	fire func(t float64)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// station is a capacity-limited FIFO resource (the CPU pool, the
// refill worker pool): jobs acquire a slot, hold it for a service
// time, release it to the next waiter.
type station struct {
	cap     int
	busy    int
	queue   []stationJob
	sim     *sim
	waitSum float64
	waited  int
	busySum float64 // busy-time integral for utilization
}

type stationJob struct {
	since float64
	start func(at float64)
}

// run enqueues a job: service is sampled when the job actually starts
// (start order is deterministic, so so is the sampling order); done
// fires at completion.
func (st *station) run(t float64, service func() float64, done func(t float64)) {
	start := func(at float64) {
		st.busy++
		d := service()
		st.busySum += d
		st.sim.schedule(at+d, func(end float64) {
			st.busy--
			st.next(end)
			done(end)
		})
	}
	if st.busy < st.cap {
		start(t)
		return
	}
	st.queue = append(st.queue, stationJob{since: t, start: start})
}

// next releases a freed slot to the head waiter.
func (st *station) next(t float64) {
	if len(st.queue) == 0 || st.busy >= st.cap {
		return
	}
	j := st.queue[0]
	st.queue = st.queue[1:]
	st.waitSum += t - j.since
	st.waited++
	j.start(t)
}

// admWaiter is a session queued behind a backend's MaxSessions limit.
type admWaiter struct {
	since float64
	shed  bool // set when the admission-wait deadline fired first
	admit func(t float64)
}

// backend is one simulated maxd.
type backend struct {
	sim     *sim
	fl      Fleet
	cpu     *station
	refill  *station
	pools   map[string]int // shape key → warm entries
	backlog map[string]int // shape key → refill jobs outstanding
	active  int            // admitted sessions in flight
	admQ    []*admWaiter
	admWait float64
	admN    int
}

func newBackend(s *sim, fl Fleet) *backend {
	return &backend{
		sim:     s,
		fl:      fl,
		cpu:     &station{cap: fl.CPUs, sim: s},
		refill:  &station{cap: fl.RefillWorkers, sim: s},
		pools:   map[string]int{},
		backlog: map[string]int{},
	}
}

// admit models internal/daemon's admission: a free slot admits
// immediately; otherwise the session queues up to AdmissionWaitSec and
// is then shed. AdmissionWaitSec 0 queues without bound.
func (b *backend) admit(t float64, admitted func(t float64), shedFn func(t float64)) {
	if b.fl.MaxSessions <= 0 || b.active < b.fl.MaxSessions {
		b.active++
		admitted(t)
		return
	}
	w := &admWaiter{since: t, admit: admitted}
	b.admQ = append(b.admQ, w)
	if b.fl.AdmissionWaitSec <= 0 {
		return
	}
	b.sim.schedule(t+b.fl.AdmissionWaitSec, func(at float64) {
		if w.shed || w.admit == nil {
			return
		}
		w.shed = true
		b.dropWaiter(w)
		shedFn(at)
	})
}

func (b *backend) dropWaiter(w *admWaiter) {
	for i, q := range b.admQ {
		if q == w {
			b.admQ = append(b.admQ[:i], b.admQ[i+1:]...)
			return
		}
	}
}

// release frees a session slot to the longest-queued live waiter.
func (b *backend) release(t float64) {
	b.active--
	for len(b.admQ) > 0 {
		w := b.admQ[0]
		b.admQ = b.admQ[1:]
		if w.shed {
			continue
		}
		b.admWait += t - w.since
		b.admN++
		admit := w.admit
		w.admit = nil
		b.active++
		admit(t)
		return
	}
}

// takePool consumes one warm entry for the shape, kicking a refill
// job, and reports whether the request hit.
func (b *backend) takePool(t float64, key string, cal *Calibration, rng *rand.Rand) bool {
	if b.fl.PoolDepth <= 0 {
		return false
	}
	if b.pools[key] <= 0 {
		b.ensureRefill(t, key, cal, rng)
		return false
	}
	b.pools[key]--
	b.ensureRefill(t, key, cal, rng)
	return true
}

// ensureRefill keeps refill jobs outstanding for every missing entry,
// mirroring the engine's backlog-driven workers.
func (b *backend) ensureRefill(t float64, key string, cal *Calibration, rng *rand.Rand) {
	deficit := b.fl.PoolDepth - b.pools[key] - b.backlog[key]
	for i := 0; i < deficit; i++ {
		b.backlog[key]++
		b.refill.run(t,
			func() float64 { return cal.Refill.Sample(rng) },
			func(end float64) {
				b.backlog[key]--
				if b.pools[key] < b.fl.PoolDepth {
					b.pools[key]++
				}
			})
	}
}

// sim is one simulation run's mutable state.
type sim struct {
	events eventHeap
	seq    int
	now    float64
}

func (s *sim) schedule(at float64, fire func(t float64)) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fire: fire})
}

func (s *sim) drain() {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		e.fire(e.at)
	}
}

// Simulate replays the scenario's exact arrival schedule (the same
// load.ArrivalTimes the live generator paces by) through the fleet
// model and predicts the run's report. Deterministic: the same
// scenario, fleet and calibration produce a byte-identical Result.
func Simulate(sc load.Scenario, fl Fleet, cal *Calibration) (*Result, error) {
	arrivals, err := load.ArrivalTimes(sc)
	if err != nil {
		return nil, err
	}
	fl = fl.withDefaults()
	// A dedicated stream, decoupled from the schedule's: service
	// sampling must not perturb arrivals.
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x7ac0_ffee_c0de_55aa))
	s := &sim{}
	backends := make([]*backend, fl.Backends)
	for i := range backends {
		backends[i] = newBackend(s, fl)
		if fl.WarmStart && fl.PoolDepth > 0 {
			for _, sw := range sc.Shapes {
				backends[i].pools[sw.Key()] = fl.PoolDepth
			}
		}
	}

	res := &Result{Fleet: fl, CalibrationSource: cal.Source, StageMeans: cal.Describe()}
	res.Scenario = sc
	res.Offered = len(arrivals)
	inflight := 0
	var latencies []float64
	var poolHits, poolMisses uint64

	for i, a := range arrivals {
		i, a := i, a
		s.schedule(a.At, func(t float64) {
			if sc.MaxInflight > 0 && inflight >= sc.MaxInflight {
				res.Skipped++
				return
			}
			inflight++
			res.Started++
			b := backends[i%len(backends)]
			finish := func(end float64, ok bool) {
				inflight--
				if ok {
					res.Succeeded++
					latencies = append(latencies, end-a.At+cal.Overhead)
				}
			}
			b.admit(t,
				func(at float64) {
					// Admitted: OT setup on a CPU slot, then the request.
					b.cpu.run(at,
						func() float64 { return cal.OTSetup.Sample(rng) },
						func(otEnd float64) {
							hit := b.takePool(otEnd, a.Shape.Key(), cal, rng)
							if hit {
								poolHits++
							} else {
								poolMisses++
							}
							b.cpu.run(otEnd,
								func() float64 {
									if hit {
										return cal.RequestWarm.Sample(rng)
									}
									return cal.RequestCold.Sample(rng)
								},
								func(end float64) {
									b.release(end)
									finish(end, true)
								})
						})
				},
				func(at float64) {
					res.Shed++
					finish(at, false)
				})
		})
	}
	s.drain()

	res.Finalize(latencies)
	if fl.PoolDepth > 0 {
		res.Pool = load.NewPoolStats(poolHits, poolMisses)
	}
	var admWait, cpuWait float64
	var admN, cpuN int
	var busySum float64
	for _, b := range backends {
		admWait += b.admWait
		admN += b.admN
		cpuWait += b.cpu.waitSum
		cpuN += b.cpu.waited
		busySum += b.cpu.busySum
	}
	if admN > 0 {
		res.MeanAdmissionWaitMs = admWait / float64(admN) * 1000
	}
	if cpuN > 0 {
		res.MeanCPUWaitMs = cpuWait / float64(cpuN) * 1000
	}
	if window := sc.DurationSec * float64(fl.Backends*fl.CPUs); window > 0 {
		res.CPUUtilization = busySum / window
	}
	return res, nil
}
