// Command perfbench is the repository benchmark: it drives one traffic
// mix against a real protocol.Server over loopback TCP from a single
// process, checks every response against the plaintext A·y, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run, --trace 1) with a final JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setupsPerRun is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupsPerRun = 3

// runLimit bounds a whole run: a hang ends the process rather than the
// caller's patience.
const runLimit = 170 * time.Second

func main() {
	stop := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout)
	stop.Stop()
	os.Exit(code)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "traffic mix: oneshot-4x4, mux-inline-16x16 or warm-open-8x8")
	seed := fs.Int64("seed", 1, "seed of the matrices, vectors and arrival schedule")
	secs := fs.Int("seconds", 10, "seconds of measuring")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := findWorkload(*name, runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// A traced run measures two windows, untraced then traced, so each
	// takes half of --seconds and the run costs what an untraced one does.
	window := time.Duration(*secs) * time.Second
	if *trace == 1 {
		window /= 2
	}
	in, err := makeInputs(w, *seed, window.Seconds())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: inputs:", err)
		return 1
	}
	env := stamp(w, *seed)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%d\nenv %s\n", w.name, *seed, *secs, *trace, envJSON)

	var res result
	var metrics []metric
	var names []string
	if *trace == 0 {
		r, setupTimes, err := setUp(w, in, nil, setupsPerRun)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		wd := r.measure(window)
		r.close()
		res.add(wd)
		metrics, names = endToEnd(w, wd, setupTimes, window), endToEndNames
		printMetrics(out, "end-to-end (untraced)", metrics)
	} else {
		r, _, err := setUp(w, in, nil, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		base := r.measure(window)
		r.close()
		res.add(base)

		rec := newRecorder()
		if r, _, err = setUp(w, in, rec, 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced set-up:", err)
			return 1
		}
		wd := r.measure(window)
		r.close() // waits for the server to finish its last Serve
		spans := rec.snapshot()
		res.add(wd)
		iso, err := isolate(w, in, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: isolation pass:", err)
			return 1
		}
		metrics = perLayer(layerInput{w: w, base: base, wd: wd, rec: rec, spans: spans, served: r.served, iso: iso})
		for _, m := range metrics {
			names = append(names, m.name)
		}
		printMetrics(out, "per-layer (traced)", metrics)
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		header := map[string]any{"env": env, "metrics": jsonMetrics(metrics, names)}
		if err := rec.write(path, header); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(rec.snapshot()), path)
	}

	res.Correct = res.Failed == 0
	res.Metrics = jsonMetrics(metrics, names)
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload n times, timing each set-up, and keeps the
// last rig for measuring.
func setUp(w workload, in *inputs, rec *recorder, n int) (*rig, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		t := time.Now()
		r, err := newRig(w, in, rec)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t))
		if i == n-1 {
			return r, times, nil
		}
		r.close()
	}
}

func (res *result) add(wd *window) {
	res.Attempted += wd.sent
	res.Failed += wd.failed
	for _, e := range wd.firstErrLines {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", e)
	}
}

func jsonMetrics(ms []metric, names []string) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(names))
	for _, m := range ms {
		if slices.Contains(names, m.name) {
			out[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	return out
}
