package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// record is the compact result record: a header naming the machine and
// the run, then one row per workload and metric with its value, unit and
// sample count.
type record struct {
	header []string
	rows   []string
}

func newRecord(seed uint64, seconds float64, trace int) *record {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return &record{header: []string{
		"# perfbench record v1",
		fmt.Sprintf("# date=%s cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
			time.Now().UTC().Format(time.RFC3339), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit),
		fmt.Sprintf("# seed=%d seconds=%g trace=%d", seed, seconds, trace),
		"# workload\tmetric\tvalue\tunit\tsamples",
	}}
}

func (r *record) add(res result) {
	for _, ms := range [][]metric{res.metrics, res.extra} {
		for _, m := range ms {
			r.rows = append(r.rows, fmt.Sprintf("%s\t%s\t%.6g\t%s\t%d", res.workload, m.name, m.value, m.unit, m.n))
		}
	}
	for _, n := range res.notes {
		r.rows = append(r.rows, fmt.Sprintf("# %s: %s", res.workload, n))
	}
	if res.err != nil {
		r.rows = append(r.rows, fmt.Sprintf("# %s failed: %v", res.workload, res.err))
	}
}

func (r *record) String() string {
	return strings.Join(append(append([]string(nil), r.header...), r.rows...), "\n") + "\n"
}

// save writes the record to dir, named after the workload and the run.
func (r *record) save(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	name := fmt.Sprintf("%s-%s.tsv", workload, time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), []byte(r.String()), 0o644)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
