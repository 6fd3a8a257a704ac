package main

import (
	crand "crypto/rand"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/ot"
	"maxelerator/internal/precompute"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// isolation holds the kernel layers timed one call at a time over the
// workload's own shape, with nothing else running.
type isolation struct {
	baseOT, extSetup time.Duration // one κ-pair base-OT batch; extension setup beyond it
	ext              time.Duration // one request's extension OTs, both sides
	ots, otBytes     int
	garble, encode   time.Duration // per request
	decode, evaluate time.Duration
	tables           uint64
	cores            int // GC cores of one simulated MAC unit
	allocsPerTable   float64
	nsPerHash        float64
	allocsPerHash    float64
	bind             time.Duration
	refill           time.Duration // one Prefill entry
}

// isolationReps repeats the per-request kernels; each reports its median.
const isolationReps = 3

// hashesPerPass is the gchash loop length, long enough for a steady ns/hash.
const hashesPerPass = 200_000

// isolate times every kernel layer once per call and checks that the
// evaluated chain decodes to the plaintext.
func isolate(w workload, in *inputs, rec *recorder) (*isolation, error) {
	iso := &isolation{}
	if err := iso.otLayer(w, rec); err != nil {
		return nil, err
	}
	var garble, encode, decode, evaluate, bind, refill []time.Duration
	for rep := 0; rep < isolationReps; rep++ {
		g, e, d, v, err := iso.gcLayer(w, in, rec, rep)
		if err != nil {
			return nil, err
		}
		garble, encode, decode, evaluate = append(garble, g), append(encode, e), append(decode, d), append(evaluate, v)
		b, f, err := precomputeLayer(w, in, rec)
		if err != nil {
			return nil, err
		}
		bind, refill = append(bind, b), append(refill, f)
	}
	iso.garble, iso.encode, iso.decode, iso.evaluate = medianDur(garble), medianDur(encode), medianDur(decode), medianDur(evaluate)
	iso.bind, iso.refill = medianDur(bind), medianDur(refill)
	iso.hashLayer(rec)
	return iso, nil
}

// timed runs f as one isolation span and returns its duration.
func timed(rec *recorder, name string, f func() error) (time.Duration, error) {
	sp := rec.start(name, "isolation", "", -1)
	t := time.Now()
	err := f()
	d := time.Since(t)
	rec.end(sp, 0)
	return d, err
}

// both runs the two sides of an exchange concurrently, one span each,
// and returns the wall time from the first start to the last end.
func both(rec *recorder, nameA string, a func() error, nameB string, b func() error) (time.Duration, error) {
	var errA error
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		sp := rec.start(nameA, "isolation", "", -1)
		errA = a()
		rec.end(sp, 0)
	}()
	sp := rec.start(nameB, "isolation", "", -1)
	errB := b()
	rec.end(sp, 0)
	wg.Wait()
	if errA != nil {
		return 0, fmt.Errorf("%s: %w", nameA, errA)
	}
	if errB != nil {
		return 0, fmt.Errorf("%s: %w", nameB, errB)
	}
	return time.Since(t0), nil
}

func (iso *isolation) otLayer(w workload, rec *recorder) error {
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	pairs := make([][2]ot.Message, ot.Kappa)
	choices := make([]bool, ot.Kappa)
	baseOT := func() (time.Duration, error) {
		return both(rec,
			"ot.BaseSend", func() error { return ot.BaseSend(a, crand.Reader, pairs) },
			"ot.BaseReceive", func() error { _, err := ot.BaseReceive(b, crand.Reader, choices); return err })
	}
	before, err := baseOT()
	if err != nil {
		return err
	}
	// Counting the sender's end sees every byte of both directions.
	ca := wire.NewCounting(a)
	var snd *ot.ExtensionSender
	var rcv *ot.ExtensionReceiver
	setup, err := both(rec,
		"ot.NewExtensionSender", func() (err error) { snd, err = ot.NewExtensionSender(ca, crand.Reader); return err },
		"ot.NewExtensionReceiver", func() (err error) { rcv, err = ot.NewExtensionReceiver(b, crand.Reader); return err })
	if err != nil {
		return err
	}
	// The extension setup is a base-OT batch plus little else, so its
	// excess is small against base OT's run-to-run drift: compare it
	// with the mean of a batch run just before and one just after.
	after, err := baseOT()
	if err != nil {
		return err
	}
	iso.baseOT = (before + after) / 2
	iso.extSetup = setup - iso.baseOT

	// A request's OTs: one batch of b per MAC round in per-round mode,
	// one batch of all rows·cols·b in batched mode.
	iso.ots = w.rows * w.cols * w.width
	batch, batches := w.width, w.rows*w.cols
	if w.ot == protocol.OTBatched {
		batch, batches = iso.ots, 1
	}
	s0, r0, _, _ := ca.Totals()
	var ext []time.Duration
	for rep := 0; rep < isolationReps; rep++ {
		var total time.Duration
		for i := 0; i < batches; i++ {
			d, err := both(rec,
				"ot.ExtensionSender.Send", func() error { return snd.Send(make([][2]ot.Message, batch)) },
				"ot.ExtensionReceiver.Receive", func() error { _, err := rcv.Receive(make([]bool, batch)); return err })
			if err != nil {
				return err
			}
			total += d
		}
		ext = append(ext, total)
	}
	s1, r1, _, _ := ca.Totals()
	iso.ext = medianDur(ext)
	iso.otBytes = int(s1-s0+r1-r0) / isolationReps
	return nil
}

// gcLayer garbles, encodes, decodes and evaluates one request's worth
// of rounds, one span per call, and checks every row against the
// plaintext of the rep-th client vector.
func (iso *isolation) gcLayer(w workload, in *inputs, rec *recorder, rep int) (garble, encode, decode, evaluate time.Duration, err error) {
	sim, err := maxsim.New(w.simConfig())
	if err != nil {
		return
	}
	params, ckt := sim.Config().Params, sim.Circuit()
	iso.cores = sim.Schedule().NumCores()
	y, want := in.Vectors[rep%numVectors], in.Want[rep%numVectors]
	runs := make([]*maxsim.DotProductRun, len(in.Matrix))
	allocs0 := heapAllocs()
	for i, row := range in.Matrix {
		d, err := timed(rec, "maxsim.Simulator.GarbleDotProduct", func() (err error) { runs[i], err = sim.GarbleDotProduct(row); return err })
		if err != nil {
			return 0, 0, 0, 0, err
		}
		garble += d
	}
	allocs := heapAllocs() - allocs0
	var tables uint64
	for _, run := range runs {
		tables += run.Stats.TablesGarbled
	}
	iso.tables = tables
	iso.allocsPerTable = float64(allocs) / float64(tables)

	var buf []byte
	for i, run := range runs {
		var state []label.Label
		var res *gc.EvalResult
		for j, gb := range run.Rounds {
			d, err := timed(rec, "gc.AppendMaterial", func() (err error) { buf, err = gc.AppendMaterial(buf[:0], &gb.Material); return err })
			if err != nil {
				return 0, 0, 0, 0, err
			}
			encode += d
			var m *gc.Material
			if d, err = timed(rec, "gc.UnmarshalMaterial", func() (err error) { m, err = gc.UnmarshalMaterial(buf); return err }); err != nil {
				return 0, 0, 0, 0, err
			}
			decode += d
			bits := circuit.Int64ToBits(y[j], w.width)
			active := make([]label.Label, len(bits))
			for k, v := range bits {
				active[k] = gb.EvalPairs[k].Get(v)
			}
			if d, err = timed(rec, "gc.Evaluate", func() (err error) { res, err = gc.Evaluate(params, ckt, m, active, state); return err }); err != nil {
				return 0, 0, 0, 0, err
			}
			evaluate += d
			state = res.StateActive
		}
		if got := circuit.BitsToInt64(res.Outputs); got != want[i] {
			return 0, 0, 0, 0, fmt.Errorf("isolated gc.Evaluate chain decoded row %d to %d, plaintext is %d", i, got, want[i])
		}
	}
	return garble, encode, decode, evaluate, nil
}

// precomputeLayer builds one pool entry, takes it and binds it to the
// model, as the warm serve path does.
func precomputeLayer(w workload, in *inputs, rec *recorder) (bind, refill time.Duration, err error) {
	eng, err := precompute.New(precompute.Config{Sim: w.simConfig(), PoolSize: 1})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Stop()
	shape := w.shape()
	if refill, err = timed(rec, "precompute.Engine.Prefill", func() error { return eng.Prefill(shape, 1) }); err != nil {
		return 0, 0, err
	}
	var ent *precompute.Entry
	_, _ = timed(rec, "precompute.Engine.Take", func() error { ent = eng.Take(shape); return nil })
	if ent == nil {
		return 0, 0, fmt.Errorf("precompute: prefilled pool missed")
	}
	bind, err = timed(rec, "precompute.Entry.Bind", func() error { _, err := ent.Bind(in.Matrix); return err })
	return bind, refill, err
}

func (iso *isolation) hashLayer(rec *recorder) {
	h := gchash.MustAES()
	var x, dst label.Label
	// One span for the whole loop: a span per 50 ns hash would time the
	// recorder, not the hash.
	sp := rec.start(fmt.Sprintf("gchash.AES.HashInto x%d", hashesPerPass), "isolation", "", -1)
	allocs0 := heapAllocs()
	t := time.Now()
	for i := 0; i < hashesPerPass; i++ {
		h.HashInto(&x, uint64(i), &dst)
		x = dst
	}
	d := time.Since(t)
	allocs := heapAllocs() - allocs0
	rec.end(sp, 0)
	iso.nsPerHash = float64(d.Nanoseconds()) / hashesPerPass
	iso.allocsPerHash = float64(allocs) / hashesPerPass
}

// heapAllocs is the process's cumulative count of heap allocations.
// ReadMemStats flushes every per-P cache, so the count is exact.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}
