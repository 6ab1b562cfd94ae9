// Command perfbench is the repository's benchmark. It runs seeded,
// closed-loop workloads against the dual-boundary design as the
// repository assembles it and prints end-to-end metrics; with -trace 1 it
// also rebuilds the same system from its components with timing
// decorators at every seam and prints the per-layer split.
//
//	go run . --workload rpc --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is non-zero when any
// request failed or any check did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloads maps each workload to its untraced and traced assembly.
var workloads = map[string]struct {
	setup, traced func(seed uint64) (*env, error)
}{
	"rpc":     {setupRPC, setupTracedRPC},
	"gateway": {setupGateway, setupTracedGateway},
	"files":   {setupFiles, setupTracedFiles},
}

var workloadOrder = []string{"rpc", "gateway", "files"}

// setupRuns is how many times a run builds its system to time set-up.
const setupRuns = 15

// recordDir is where result records are saved, under the directory the
// benchmark runs in.
const recordDir = ".bench_build/records"

// stallLimit ends a run whose requests stopped completing.
const stallLimit = 30 * time.Second

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// result is one workload's run.
type result struct {
	workload  string
	metrics   []metric // what the JSON line carries
	extra     []metric // further rows of the record
	attempted int
	failed    int
	err       error
	notes     []string // comment lines for the record
}

func main() {
	wl := flag.String("workload", "rpc", "workload: rpc, gateway, files or all")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: also run the traced assembly and print the per-layer split")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadOrder
	} else if _, ok := workloads[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	go watchStall()

	d := time.Duration(*seconds * float64(time.Second))
	var results []result
	for _, name := range names {
		var r result
		if *trace == 1 {
			r = runTraced(name, *seed, d)
		} else {
			r = runPlain(name, *seed, d)
		}
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, r.err)
		}
		results = append(results, r)
	}

	rec := newRecord(*seed, *seconds, *trace)
	for _, r := range results {
		rec.add(r)
	}
	fmt.Print(rec.String())
	if err := rec.save(recordDir, *wl); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}

	ok := true
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: map[string]map[string]any{}}
	for _, r := range results {
		ok = ok && r.err == nil && r.failed == 0
		line.Attempted += r.attempted
		line.Failed += r.failed
		for _, m := range r.metrics {
			key := m.name
			if len(results) > 1 {
				key = r.workload + "." + m.name
			}
			line.Metrics[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line.Correct = ok
	if line.Attempted == 0 {
		line.Attempted = 1 // a run that failed before its first request
		line.Failed = 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !ok {
		os.Exit(1)
	}
}

// watchStall exits the process when no request completed for stallLimit,
// so a wedged system fails the run instead of hanging it.
func watchStall() {
	last, since := progress.Load(), time.Now()
	for range time.Tick(time.Second) {
		if p := progress.Load(); p != last {
			last, since = p, time.Now()
			continue
		}
		if time.Since(since) > stallLimit {
			fmt.Fprintf(os.Stderr, "perfbench: no request completed for %v\n", stallLimit)
			os.Exit(1)
		}
	}
}

// build times setupRuns builds of a workload's untraced system and keeps
// the last one.
func build(setup func(uint64) (*env, error), seed uint64, runs int) (*env, []time.Duration, error) {
	var times []time.Duration
	var e *env
	for i := 0; i < runs; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC() // keep the previous build's garbage out of this one's time
		t0 := time.Now()
		var err error
		if e, err = setup(seed); err != nil {
			return nil, times, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		progress.Add(1)
	}
	return e, times, nil
}

// runPlain measures the untraced system for d and reports the end-to-end
// metrics.
func runPlain(name string, seed uint64, d time.Duration) result {
	r := result{workload: name}
	e, setups, err := build(workloads[name].setup, seed, setupRuns)
	if err != nil {
		r.err = err
		return r
	}
	p, err := run(e, d, 3*d)
	e.close()
	r.attempted, r.failed, r.err = p.rec.attempted+p.warmAttempted, p.rec.failed+p.warmFailed, err
	r.metrics, r.extra = endToEnd(p, setups)
	return r
}

// runTraced measures the untraced system for d/2, then the traced
// assembly for d/2, checks that both did the same work, and reports the
// per-layer split.
func runTraced(name string, seed uint64, d time.Duration) result {
	r := result{workload: name}
	half := d / 2
	e, setups, err := build(workloads[name].setup, seed, 1)
	if err != nil {
		r.err = err
		return r
	}
	pu, err := run(e, half, 3*half)
	e.close()
	r.attempted, r.failed = pu.rec.attempted+pu.warmAttempted, pu.rec.failed+pu.warmFailed
	if err != nil {
		r.err = fmt.Errorf("untraced: %w", err)
		return r
	}
	te, tsetups, err := build(workloads[name].traced, seed, 1)
	if err != nil {
		r.err = fmt.Errorf("traced %w", err)
		return r
	}
	pt, err := run(te, half, 3*half)
	te.close()
	r.attempted += pt.rec.attempted + pt.warmAttempted
	r.failed += pt.rec.failed + pt.warmFailed
	if err != nil {
		r.err = fmt.Errorf("traced: %w", err)
		return r
	}
	if pu.fid != pt.fid {
		r.err = fmt.Errorf("replica fidelity: untraced %+v, traced %+v over the same %d warm-up steps", pu.fid, pt.fid, warmSteps)
		r.failed++
	}

	ue, uextra := endToEnd(pu, setups)
	tm, textra := endToEnd(pt, tsetups)
	r.metrics = layerMetrics(te.trace, pt, pt.rec.all.sorted().iqm(), pu.rec.all.sorted().iqm())
	r.extra = append(append(r.extra, ue...), uextra...)
	for _, m := range append(tm, textra...) {
		m.name = "traced." + m.name
		r.extra = append(r.extra, m)
	}
	for _, m := range meterMetrics(pu.costs, pu.events, len(pu.rec.all)) {
		m.name = "untraced." + m.name
		r.extra = append(r.extra, m)
	}
	if lost := te.trace.tr.lostEvents(); lost > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d trace events lost to full buffers", lost))
	}
	r.notes = append(r.notes, te.trace.notes...)
	return r
}

// endToEnd computes the end-to-end metrics of a phase: the ones the JSON
// line carries, and the further rows of the record.
func endToEnd(p phase, setups []time.Duration) (metrics, extra []metric) {
	all, rd, wr := p.rec.all.sorted(), p.rec.read.sorted(), p.rec.write.sorted()
	n := len(all)
	st := make([]float64, len(setups))
	for i, s := range setups {
		st[i] = s.Seconds()
	}
	// Rates are the median over the phase's steps.
	ws := p.steps
	var opsS, mbps, cpuOp, allocsOp []float64
	for _, w := range ws {
		secs := w.wall.Seconds()
		opsS = append(opsS, ratio(float64(w.ops), secs))
		mbps = append(mbps, ratio(float64(w.bytes)/1e6, secs))
		cpuOp = append(cpuOp, ratio(float64(w.cpu)/1e3, float64(w.ops)))
		allocsOp = append(allocsOp, ratio(float64(w.allocs), float64(w.ops)))
	}
	// Latency is carried as the interquartile mean: rpc's latencies fall
	// in modes a whole idle-loop sleep apart, and the median jumps between
	// them when the machine's load shifts the mix, while the mean of the
	// middle half moves with the mix. Medians and the tail go to the
	// record only.
	metrics = []metric{
		{"setup_s", median(st), "s", len(st)},
		{"ops_s", median(opsS), "1/s", len(ws)},
		{"iqm_us", all.iqm(), "us", n},
		{"read_iqm_us", rd.iqm(), "us", len(rd)},
		{"write_iqm_us", wr.iqm(), "us", len(wr)},
		{"mbps", median(mbps), "MB/s", len(ws)},
		{"cpu_us_op", median(cpuOp), "us", len(ws)},
		{"allocs_op", median(allocsOp), "count", len(ws)},
	}
	extra = []metric{
		{"p50_us", all.at(50), "us", n},
		{"read_p50_us", rd.at(50), "us", len(rd)},
		{"write_p50_us", wr.at(50), "us", len(wr)},
	}
	if q, ok := highestSupported(99, n); ok {
		extra = append(extra, metric{pctName("", q), all.at(q), "us", n})
	}
	attempted := p.rec.attempted + p.warmAttempted
	extra = append(extra, metric{"fail_ratio", ratio(float64(p.rec.failed+p.warmFailed), float64(attempted)), "ratio", attempted})
	return metrics, extra
}
