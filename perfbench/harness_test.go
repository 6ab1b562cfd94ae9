package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"confio/internal/blockdev"
	"confio/internal/nic"
	"confio/internal/safering"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if supported(99, 999) {
		t.Error("p99 of 999 samples has 9 beyond it, want unsupported")
	}
	if !supported(99, 1000) {
		t.Error("p99 of 1000 samples has 10 beyond it, want supported")
	}
	if q, ok := highestSupported(99, 500); !ok || q != 90 {
		t.Errorf("highest supported of 500 samples = %v, %v; want 90", q, ok)
	}
	if _, ok := highestSupported(99, 15); ok {
		t.Error("15 samples support no percentile")
	}

	// A phase too short for p99 names p90 in its place.
	var p phase
	for i := 0; i < 500; i++ {
		p.rec.all = append(p.rec.all, int64(i+1)*1000)
	}
	ms, extra := endToEnd(p, []time.Duration{time.Millisecond})
	var named bool
	for _, m := range append(ms, extra...) {
		if m.name == "p99_us" {
			t.Fatal("p99_us reported without support")
		}
		if m.name == "p90_us" {
			named = true
			if m.value != 450 || m.n != 500 {
				t.Errorf("p90_us = %v over %d samples, want 450 over 500", m.value, m.n)
			}
		}
	}
	if !named {
		t.Errorf("record rows %v do not name p90_us", extra)
	}
}

func TestIQMIsTheMeanOfTheMiddleHalf(t *testing.T) {
	s := sample{1000, 2000, 3000, 4000, 5000, 6000, 7000, 1e9}.sorted()
	if got := s.iqm(); got != 4.5 {
		t.Errorf("iqm = %v us, want 4.5", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{lane: 1, start: 0, end: 100},  // parent
		{lane: 1, start: 10, end: 40},  // child
		{lane: 1, start: 30, end: 60},  // child overlapping the first
		{lane: 1, start: 15, end: 20},  // grandchild
		{lane: 2, start: 50, end: 90},  // another lane: not a child
		{lane: 0, start: 70, end: 80},  // lane 0: never a child or parent
		{lane: 1, start: 95, end: 120}, // crosses the parent's end
	}
	want := []int64{100 - 50, 30 - 5, 30, 5, 40, 10, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMatchSurvivesRetransmitsAndDuplicates(t *testing.T) {
	const ms = int64(time.Millisecond)
	ev := func(at int64, s seam, h uint64) frameEvent { return frameEvent{at: at, seam: s, hash: h} }
	events := []frameEvent{
		// Two identical frames (a repeated pure ACK) in flight at once.
		ev(10, seamGuestSend, 1), ev(20, seamGuestSend, 1),
		ev(30, seamHostPop, 1), ev(45, seamHostPop, 1),
		// A frame lost after its send, retransmitted past the horizon:
		// the copy that arrives matches the retransmit.
		ev(100*ms, seamGuestSend, 2),
		ev(160*ms, seamGuestSend, 2),
		ev(161*ms, seamHostPop, 2),
		// A spurious retransmit: both copies arrive, each matched in order.
		ev(200*ms, seamGuestSend, 3), ev(201*ms, seamGuestSend, 3),
		ev(202*ms, seamHostPop, 3), ev(204*ms, seamHostPop, 3),
		// A pop with no send.
		ev(300*ms, seamHostPop, 4),
	}
	// Out of order on purpose: events are recorded by many goroutines.
	events[0], events[3] = events[3], events[0]
	waits, unmatched := matchWaits(events, seamGuestSend, seamHostPop, 25*ms)
	want := []int64{20, 25, 1 * ms, 2 * ms, 3 * ms}
	if len(waits) != len(want) {
		t.Fatalf("waits %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Errorf("wait %d = %d, want %d", i, waits[i], want[i])
		}
	}
	if unmatched != 1 {
		t.Errorf("unmatched = %d, want 1", unmatched)
	}
}

func TestFrameHashSeesHeadersAndLength(t *testing.T) {
	f := tcpFrame(40000, 8443, 100)
	g := append([]byte(nil), f...)
	if frameHash(f) != frameHash(g) {
		t.Error("equal frames hash differently")
	}
	g[40] ^= 1 // inside the TCP header
	if frameHash(f) == frameHash(g) {
		t.Error("header change not seen")
	}
	if frameHash(f) == frameHash(f[:len(f)-1]) {
		t.Error("length change not seen")
	}
	src, dst, payload, ok := tcpPorts(f)
	if !ok || src != 40000 || dst != 8443 || payload != 100 {
		t.Errorf("tcpPorts = %d, %d, %d, %v", src, dst, payload, ok)
	}
}

// tcpFrame builds an Ethernet/IPv4/TCP frame with the given ports and
// payload length.
func tcpFrame(src, dst uint16, payload int) []byte {
	f := make([]byte, 14+20+20+payload)
	binary.BigEndian.PutUint16(f[12:], 0x0800)
	ip := f[14:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(20+20+payload))
	ip[9] = 6
	seg := ip[20:]
	binary.BigEndian.PutUint16(seg[0:], src)
	binary.BigEndian.PutUint16(seg[2:], dst)
	seg[12] = 5 << 4
	return f
}

// Fake hosts with each combination of optional interfaces.
type plainHost struct{}

func (plainHost) Pop([]byte) (int, error) { return 0, nic.ErrEmpty }
func (plainHost) Push([]byte) error       { return nil }
func (plainHost) FrameCap() int           { return 1514 }

type batchHost struct{ plainHost }

func (batchHost) PopBatch([][]byte, []int) (int, error) { return 0, nic.ErrEmpty }
func (batchHost) PushBatch(f [][]byte) (int, error)     { return len(f), nil }

type notifier struct{}

func (notifier) ArmNotify() bool             { return false }
func (notifier) SuppressNotify()             {}
func (notifier) NotifyChan() <-chan struct{} { return nil }

type notifyHost struct {
	plainHost
	notifier
}

type batchNotifyHost struct {
	batchHost
	notifier
}

func TestDecoratorsKeepExactlyTheOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, h := range []nic.Host{plainHost{}, batchHost{}, notifyHost{}, batchNotifyHost{}} {
		_, wantB := h.(nic.BatchHost)
		_, wantN := h.(nic.NotifyHost)
		d := wrapHost(h, tr)
		_, gotB := d.(nic.BatchHost)
		_, gotN := d.(nic.NotifyHost)
		if gotB != wantB || gotN != wantN {
			t.Errorf("%T: decorator batch=%v notify=%v, want %v %v", h, gotB, gotN, wantB, wantN)
		}
	}

	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapGuest(ep.NIC(), tr, false).(nic.BatchGuest); !ok {
		t.Error("batch guest lost its batch view")
	}
	if _, ok := wrapGuest(ep.NIC(), tr, false).(nic.MultiGuest); ok {
		t.Error("single-queue guest gained a multi-queue view")
	}
	mep, err := safering.NewMulti(safering.DefaultConfig(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	mg, ok := wrapGuest(mep.NIC(), tr, false).(nic.MultiGuest)
	if !ok || mg.NumQueues() != 2 {
		t.Fatal("multi-queue guest lost its multi-queue view")
	}
	if _, ok := mg.Queue(1).(*batchGuestDec); !ok {
		t.Errorf("queue view %T is not decorated", mg.Queue(1))
	}

	mem := blockdev.NewMemDisk(8)
	if _, ok := wrapDisk(mem, tr, 1, lHostRead, lHostWrite).(blockdev.BatchDisk); ok {
		t.Error("plain disk gained a batch view")
	}
	if _, ok := wrapDisk(batchDisk{mem}, tr, 1, lHostRead, lHostWrite).(blockdev.BatchDisk); !ok {
		t.Error("batch disk lost its batch view")
	}
}

type batchDisk struct{ *blockdev.MemDisk }

func (d batchDisk) ReadSectors(lba uint64, p []byte) error {
	return blockdev.ReadSectors(d.MemDisk, lba, p)
}
func (d batchDisk) WriteSectors(lba uint64, p []byte) error {
	return blockdev.WriteSectors(d.MemDisk, lba, p)
}

// flipEcho echoes writes back, flipping one byte of the reply.
type flipEcho struct{ buf bytes.Buffer }

func (f *flipEcho) Write(p []byte) (int, error) {
	f.buf.Write(p)
	return len(p), nil
}

func (f *flipEcho) Read(p []byte) (int, error) {
	n, err := f.buf.Read(p)
	if n > 0 {
		p[0] ^= 0xff
	}
	return n, err
}

func TestEchoCountsCorruptReplyAsFailure(t *testing.T) {
	var rec recorder
	err := echo(&flipEcho{}, 7, 64, make([]byte, 64), &rec)
	if err == nil || rec.failed != 1 || rec.attempted != 1 || len(rec.all) != 0 {
		t.Fatalf("err %v, failed %d, attempted %d, done %d", err, rec.failed, rec.attempted, len(rec.all))
	}
}

// TestTracedRunsMatchUntraced runs every workload briefly in both
// assemblies: no request may fail, the replica fidelity check must hold,
// and every per-layer metric must be reported.
func TestTracedRunsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var names []string
	for _, name := range workloadOrder {
		r := runTraced(name, 1, 400*time.Millisecond)
		if r.err != nil || r.failed != 0 {
			t.Fatalf("%s: %v (%d of %d failed)", name, r.err, r.failed, r.attempted)
		}
		got := make([]string, len(r.metrics))
		for i, m := range r.metrics {
			got[i] = m.name
		}
		if names != nil && !equal(got, names) {
			t.Errorf("%s reports metrics %v, others %v", name, got, names)
		}
		names = got
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSeededInputsRepeat(t *testing.T) {
	if derive(1, streamRPC, 5) != derive(1, streamRPC, 5) {
		t.Fatal("derive is not deterministic")
	}
	if derive(1, streamRPC, 5) == derive(2, streamRPC, 5) || derive(1, streamRPC, 5) == derive(1, streamFlood, 5) {
		t.Fatal("seeds or streams collide")
	}
	a, b := perm(16, 99), perm(16, 99)
	seen := make(map[int]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("perm is not deterministic")
		}
		seen[a[i]] = true
	}
	if len(seen) != 16 {
		t.Fatalf("perm %v is not a permutation", a)
	}
}
