// Grid mode (-grid): the canonical benchmark sweep — OT mode × matrix
// shape × bit-width × precompute on/off — emitted in the versioned
// internal/benchgrid schema. Compare mode (-compare old.json new.json)
// diffs two grid artifacts under explicit tolerances and exits
// non-zero on any regression; together they make the repository's perf
// trajectory a committed, gated artifact (BENCH_PR<k>.json at the repo
// root, the bench-gate CI job):
//
//	maxbench -grid -json > BENCH_PR6.json
//	maxbench -grid -json -grid-sizes 4x4 -grid-widths 8   # reduced CI grid
//	maxbench -compare BENCH_PR6.json new.json
//	maxbench -compare -tol-latency 3 -tol-throughput -1 base.json new.json
package main

import (
	"fmt"
	"strconv"
	"strings"

	"maxelerator/internal/benchgrid"
	"maxelerator/internal/protocol"
)

// gridConfig fixes one sweep.
type gridConfig struct {
	ots      []protocol.OTMode
	sizes    [][2]int // rows, cols
	widths   []int
	requests int
	// pool is unused by prefillAll passes but kept so a future partial
	// warm sweep can thread it through.
}

// parseOTModes parses a comma-separated OT mode list ("per-round,batched").
func parseOTModes(csv string) ([]protocol.OTMode, error) {
	var out []protocol.OTMode
	for _, name := range strings.Split(csv, ",") {
		switch strings.TrimSpace(name) {
		case "per-round":
			out = append(out, protocol.OTPerRound)
		case "batched":
			out = append(out, protocol.OTBatched)
		case "correlated":
			out = append(out, protocol.OTCorrelated)
		case "":
		default:
			return nil, fmt.Errorf("grid: unknown OT mode %q (want per-round, batched or correlated)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("grid: no OT modes selected")
	}
	return out, nil
}

// parseSizes parses a comma-separated RxC list ("4x4,16x16").
func parseSizes(csv string) ([][2]int, error) {
	var out [][2]int
	for _, tok := range strings.Split(csv, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		rc := strings.SplitN(tok, "x", 2)
		if len(rc) != 2 {
			return nil, fmt.Errorf("grid: size %q is not RxC", tok)
		}
		r, err1 := strconv.Atoi(rc[0])
		c, err2 := strconv.Atoi(rc[1])
		if err1 != nil || err2 != nil || r <= 0 || c <= 0 {
			return nil, fmt.Errorf("grid: size %q is not a positive RxC", tok)
		}
		out = append(out, [2]int{r, c})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("grid: no sizes selected")
	}
	return out, nil
}

// parseWidths parses a comma-separated bit-width list ("8,16").
func parseWidths(csv string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(csv, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		w, err := strconv.Atoi(tok)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("grid: width %q is not a positive integer", tok)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("grid: no widths selected")
	}
	return out, nil
}

// runGrid sweeps every cell and writes the artifact: JSON (the
// benchgrid schema) with -json, a human table otherwise. Progress goes
// to stderr either way, one line per cell.
func runGrid(gc gridConfig, out *output) error {
	if gc.requests <= 0 {
		return fmt.Errorf("grid: requests must be positive (got %d)", gc.requests)
	}
	grid := benchgrid.New("maxbench -grid")
	total := 0
	for _, ot := range gc.ots {
		warmModes := 2
		if ot == protocol.OTCorrelated {
			warmModes = 1 // correlated OT fixes labels interactively; not poolable
		}
		total += warmModes * len(gc.sizes) * len(gc.widths)
	}
	done := 0
	for _, ot := range gc.ots {
		for _, size := range gc.sizes {
			for _, width := range gc.widths {
				for _, warm := range []bool{false, true} {
					if warm && ot == protocol.OTCorrelated {
						continue
					}
					done++
					out.progressf("grid: cell %d/%d ot=%s %dx%d b=%d precompute=%t (%d requests)...",
						done, total, ot, size[0], size[1], width, warm, gc.requests)
					ps, err := measurePass(passConfig{
						rows: size[0], cols: size[1], width: width, ot: ot,
						requests: gc.requests, warm: warm, prefillAll: warm, memstats: true,
					})
					if err != nil {
						return fmt.Errorf("grid: cell ot=%s %dx%d b=%d precompute=%t: %w",
							ot, size[0], size[1], width, warm, err)
					}
					p := ps.percentiles()
					cell := benchgrid.Cell{
						OT: ot.String(), Rows: size[0], Cols: size[1], Width: width,
						Precompute: warm, Requests: gc.requests,
						P50Ms:       p.P50Ms,
						P95Ms:       p.P95Ms,
						P99Ms:       p.P99Ms,
						MeanMs:      ms(ps.mean()),
						BytesPerOp:  ps.bytesPerOp,
						AllocsPerOp: ps.allocsPerOp,
					}
					if secs := ps.onlineSeconds(); secs > 0 {
						cell.TablesPerSec = float64(ps.tables) / secs
					}
					// A warm cell must hit the pool on every clocked request;
					// any miss means part of the loop ran inline, so the
					// cell's numbers describe a mixed regime. Flag it rather
					// than publish a throughput figure the serving mode
					// didn't produce.
					if warm && ps.poolMisses > 0 {
						cell.Degraded = true
						out.progressf("grid: cell ot=%s %dx%d b=%d marked degraded: pool hit %d/%d requests",
							ot, size[0], size[1], width, ps.poolHits, gc.requests)
					}
					grid.Cells = append(grid.Cells, cell)
				}
			}
		}
	}
	if err := grid.Validate(); err != nil {
		return fmt.Errorf("grid: produced an invalid artifact: %w", err)
	}

	if out.json {
		return out.emitJSON(grid)
	}
	w := out.data
	fmt.Fprintf(w, "Benchmark grid (%d requests per cell, %s %s/%s, %d CPUs)\n\n",
		gc.requests, grid.Env.GoVersion, grid.Env.GOOS, grid.Env.GOARCH, grid.Env.NumCPU)
	fmt.Fprintf(w, "%-11s %-8s %4s %5s %10s %10s %10s %12s %12s %10s\n",
		"ot", "size", "b", "warm", "p50", "p95", "p99", "tables/s", "bytes/op", "allocs/op")
	for _, c := range grid.Cells {
		mark := ""
		if c.Degraded {
			mark = "  DEGRADED"
		}
		fmt.Fprintf(w, "%-11s %-8s %4d %5t %9.1fms %9.1fms %9.1fms %12.0f %12d %10d%s\n",
			c.OT, fmt.Sprintf("%dx%d", c.Rows, c.Cols), c.Width, c.Precompute,
			c.P50Ms, c.P95Ms, c.P99Ms, c.TablesPerSec, c.BytesPerOp, c.AllocsPerOp, mark)
	}
	return nil
}

// compareReport is the -compare -json artifact.
type compareReport struct {
	Base        string                 `json:"base"`
	New         string                 `json:"new"`
	Tolerances  benchgrid.Tolerances   `json:"tolerances"`
	Regressions []benchgrid.Regression `json:"regressions"`
	OK          bool                   `json:"ok"`
}

// errRegressions is the sentinel runCompare returns when the verdict
// is a breach; main converts it to a non-zero exit without re-printing.
var errRegressions = fmt.Errorf("benchmark regressions beyond tolerance")

// runCompare loads both grids, diffs them and prints the verdict. A
// breach returns errRegressions so the process exits non-zero — the
// contract the CI bench-gate job keys on.
func runCompare(basePath, newPath string, tol benchgrid.Tolerances, out *output) error {
	base, err := benchgrid.Load(basePath)
	if err != nil {
		return err
	}
	cur, err := benchgrid.Load(newPath)
	if err != nil {
		return err
	}
	if base.Env != cur.Env {
		out.progressf("compare: environments differ (base %s/%s %d cpu, new %s/%s %d cpu) — latency cells may not be comparable",
			base.Env.GoVersion, base.Env.GOARCH, base.Env.NumCPU,
			cur.Env.GoVersion, cur.Env.GOARCH, cur.Env.NumCPU)
	}
	regs := benchgrid.Compare(base, cur, tol)
	if out.json {
		rep := compareReport{Base: basePath, New: newPath, Tolerances: tol,
			Regressions: regs, OK: len(regs) == 0}
		if rep.Regressions == nil {
			rep.Regressions = []benchgrid.Regression{}
		}
		if err := out.emitJSON(rep); err != nil {
			return err
		}
	} else {
		if len(regs) == 0 {
			fmt.Fprintf(out.data, "compare: OK — %d baseline cells within tolerance (%s vs %s)\n",
				len(base.Cells), basePath, newPath)
		} else {
			fmt.Fprintf(out.data, "compare: %d regression(s) beyond tolerance (%s vs %s):\n",
				len(regs), basePath, newPath)
			for _, r := range regs {
				fmt.Fprintf(out.data, "  %s\n", r)
			}
		}
	}
	if len(regs) > 0 {
		return errRegressions
	}
	return nil
}
