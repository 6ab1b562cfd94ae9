package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"confio/internal/observe"
	"confio/internal/platform"
	"confio/internal/workload"
)

// env is one assembled system under test with its closed-loop client.
// The untraced and traced assemblies of a workload fill the same fields,
// so both run the same client code.
type env struct {
	// step runs the next unit of the workload's seeded request sequence
	// (a whole cycle, so every run covers whole size mixes).
	step func(rec *recorder) error
	// costs reads the meter counters charged to the measured requests.
	costs func() platform.Costs
	// events reads the host-visible event count; nil when the assembly
	// has no observability meter.
	events func() uint64
	// fidelity reads the counts that do not depend on timing.
	fidelity func() fidelity
	// flood reads the bytes echoed to a background tenant; nil for none.
	flood func() int64
	// check runs the correctness checks that follow a run.
	check func() error
	close func()

	// trace is set on traced assemblies only.
	trace *traceInfo
}

// fidelity holds the counts that must come out equal in the traced and
// the untraced run of one seed.
type fidelity struct {
	cryptoBytes   uint64
	gateCrossings uint64
	hostSectors   uint64 // host sectors written (files only)
}

func (f fidelity) sub(o fidelity) fidelity {
	return fidelity{f.cryptoBytes - o.cryptoBytes, f.gateCrossings - o.gateCrossings, f.hostSectors - o.hostSectors}
}

// recorder collects what the client measures with its own clock.
type recorder struct {
	all, write, read sample
	bytes            int64 // payload bytes moved by measured requests
	userSectors      int64 // sectors of record payload written (files)
	reads, writes    int   // measured record reads and writes (files)
	genVerify        time.Duration
	attempted        int
	failed           int
}

// progress counts completed requests; the stall watchdog in main reads it.
var progress atomic.Uint64

func (r *recorder) done(write, read time.Duration) {
	r.all = append(r.all, int64(write+read))
	r.write = append(r.write, int64(write))
	r.read = append(r.read, int64(read))
	progress.Add(1)
}

// doneWrite records a record write; doneRead a record read.
func (r *recorder) doneWrite(d time.Duration) {
	r.all = append(r.all, int64(d))
	r.write = append(r.write, int64(d))
	r.writes++
	progress.Add(1)
}

func (r *recorder) doneRead(d time.Duration) {
	r.all = append(r.all, int64(d))
	r.read = append(r.read, int64(d))
	r.reads++
	progress.Add(1)
}

// fail counts a failed request and returns its error.
func (r *recorder) fail(err error) error {
	r.failed++
	return err
}

// echo runs one closed-loop echo request of size bytes whose payload is
// generated from seed, and checks the reply byte for byte.
func echo(conn io.ReadWriter, seed uint64, size int, buf []byte, rec *recorder) error {
	g0 := time.Now()
	req := workload.Payload(seed, size)
	gen := time.Since(g0)
	rec.attempted++
	t0 := time.Now()
	if _, err := conn.Write(req); err != nil {
		return rec.fail(fmt.Errorf("echo write: %w", err))
	}
	t1 := time.Now()
	if _, err := io.ReadFull(conn, buf[:size]); err != nil {
		return rec.fail(fmt.Errorf("echo read: %w", err))
	}
	t2 := time.Now()
	if err := workload.Verify(seed, buf[:size]); err != nil {
		return rec.fail(err)
	}
	rec.genVerify += gen + time.Since(t2)
	rec.done(t1.Sub(t0), t2.Sub(t1))
	rec.bytes += int64(2 * size)
	return nil
}

// phase is one measured window over an env.
type phase struct {
	rec    recorder
	costs  platform.Costs
	events uint64
	// fid is counted over the warm-up prefix, which is the same request
	// sequence in every run of a seed.
	fid fidelity
	// win is the window in tracer time (traced runs only).
	win [2]int64
	// warmAttempted and warmFailed count the warm-up requests.
	warmAttempted, warmFailed int
	// steps holds one sample per step of the measured window. Rates are
	// reported as the median step, so a garbage collection or a burst of
	// outside load on the machine moves a few steps, not the result.
	steps []tally
}

// tally holds the counters of a measured window since it started, or
// their difference over one step.
type tally struct {
	wall   time.Duration
	ops    int
	bytes  int64 // payload bytes, or the flood's when there is one
	cpu    time.Duration
	allocs uint64
}

func (a tally) sub(b tally) tally {
	return tally{a.wall - b.wall, a.ops - b.ops, a.bytes - b.bytes, a.cpu - b.cpu, a.allocs - b.allocs}
}

func snap(e *env, rec *recorder, start time.Time) tally {
	b := rec.bytes
	if e.flood != nil {
		b = e.flood()
	}
	return tally{time.Since(start), len(rec.all), b, cpuTime(), mallocs()}
}

// warmSteps is the warm-up prefix: lazy set-up finishes and the fidelity
// counts are taken over it.
const warmSteps = 4

// run warms e up, then measures it for at least d and until p99 has
// support, but never longer than limit.
func run(e *env, d, limit time.Duration) (phase, error) {
	var p phase
	var warm recorder
	f0 := e.fidelity()
	for i := 0; i < warmSteps; i++ {
		if err := e.step(&warm); err != nil {
			p.warmAttempted, p.warmFailed = warm.attempted, warm.failed
			return p, err
		}
	}
	p.warmAttempted, p.warmFailed = warm.attempted, warm.failed
	p.fid = e.fidelity().sub(f0)

	c0, ev0 := e.costs(), readEvents(e)
	if e.trace != nil {
		p.win[0] = e.trace.begin()
	}
	start := time.Now()
	prev := snap(e, &p.rec, start)
	var err error
	for {
		if err = e.step(&p.rec); err != nil {
			break
		}
		cur := snap(e, &p.rec, start)
		p.steps = append(p.steps, cur.sub(prev))
		prev = cur
		if cur.wall >= limit || (cur.wall >= d && supported(99, len(p.rec.all))) {
			break
		}
	}
	if e.trace != nil {
		p.win[1] = e.trace.finish()
	}
	p.costs = e.costs().Sub(c0)
	p.events = readEvents(e) - ev0
	if err == nil {
		err = e.check()
	}
	return p, err
}

func readEvents(e *env) uint64 {
	if e.events == nil {
		return 0
	}
	return e.events()
}

// eventCount totals every channel of an observability report.
func eventCount(r observe.Report) uint64 {
	var n uint64
	for _, c := range r.Counts {
		n += c
	}
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSamples reads the heap allocation counts, tiny ones included,
// without stopping the world.
var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}

// mallocs is called from the measuring goroutine only.
func mallocs() uint64 {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64()
}

// mix64 is the splitmix64 finalizer; it turns (seed, stream, index) into
// independent-looking 64-bit values.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Streams keep the generated inputs of one seed independent.
const (
	streamRPC uint64 = iota + 1
	streamRPCOrder
	streamMeasured
	streamFlood
	streamRecord
	streamRecordData
	streamRecordOrder
)

// derive returns the generator value for item i of a stream.
func derive(seed, stream, i uint64) uint64 {
	return mix64(mix64(seed^stream<<56) ^ i)
}

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func perm(n int, r uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		r = mix64(r)
		j := int(r % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
