package platform

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeterCountsAndSnapshot(t *testing.T) {
	var m Meter
	m.CrossTEE(2)
	m.CrossGate(3)
	m.Copy(100)
	m.Check(5)
	m.Notify(1)
	m.Crypto(64)
	m.Share(4)
	m.Revoke(2)
	c := m.Snapshot()
	want := Costs{TEECrossings: 2, GateCrossings: 3, BytesCopied: 100, Checks: 5,
		Notifications: 1, CryptoBytes: 64, PagesShared: 4, PagesRevoked: 2}
	if c != want {
		t.Fatalf("snapshot = %+v, want %+v", c, want)
	}
}

func TestNilMeterIsSafe(t *testing.T) {
	var m *Meter
	m.CrossTEE(1)
	m.CrossGate(1)
	m.Copy(1)
	m.Check(1)
	m.Notify(1)
	m.Crypto(1)
	m.Share(1)
	m.Revoke(1)
}

func TestCostsSubAddString(t *testing.T) {
	a := Costs{TEECrossings: 5, BytesCopied: 100}
	b := Costs{TEECrossings: 2, BytesCopied: 40}
	d := a.Sub(b)
	if d.TEECrossings != 3 || d.BytesCopied != 60 {
		t.Fatalf("Sub = %+v", d)
	}
	s := a.Add(b)
	if s.TEECrossings != 7 || s.BytesCopied != 140 {
		t.Fatalf("Add = %+v", s)
	}
	if !strings.Contains(a.String(), "tee=5") {
		t.Fatalf("String = %q", a.String())
	}
}

func TestModelNanos(t *testing.T) {
	p := CostParams{TEECrossNs: 1000, CopyByteNs: 1}
	c := Costs{TEECrossings: 3, BytesCopied: 500}
	if got := c.ModelNanos(p); got != 3500 {
		t.Fatalf("ModelNanos = %v, want 3500", got)
	}
	// Default params: a TEE crossing dwarfs a gate crossing — the premise
	// of the paper's dual-boundary argument.
	dp := DefaultCostParams()
	if dp.TEECrossNs <= 10*dp.GateCrossNs {
		t.Fatalf("calibration inverted: TEE %v vs gate %v", dp.TEECrossNs, dp.GateCrossNs)
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Copy(1)
				m.CrossTEE(1)
			}
		}()
	}
	wg.Wait()
	c := m.Snapshot()
	if c.BytesCopied != 8000 || c.TEECrossings != 8000 {
		t.Fatalf("lost updates: %+v", c)
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := NewWindow(PageSize-1, nil); err == nil {
		t.Error("accepted non-page-multiple size")
	}
	if _, err := NewWindow(3*PageSize, nil); err == nil {
		t.Error("accepted non-power-of-two size (region must reject)")
	}
	w, err := NewWindow(4*PageSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Pages() != 4 {
		t.Fatalf("Pages = %d", w.Pages())
	}
	if w.SharedPages() != 4 {
		t.Fatalf("initially shared = %d", w.SharedPages())
	}
}

func TestRevokeBlocksHost(t *testing.T) {
	var m Meter
	w, err := NewWindow(4*PageSize, &m)
	if err != nil {
		t.Fatal(err)
	}
	hv := w.HostView()
	if err := hv.WriteAt([]byte("hello"), PageSize); err != nil {
		t.Fatal(err)
	}

	w.Revoke(PageSize, 10) // revoke page 1
	if err := hv.WriteAt([]byte("evil"), PageSize+100); !errors.Is(err, ErrRevoked) {
		t.Fatalf("host write to revoked page: %v", err)
	}
	buf := make([]byte, 4)
	if err := hv.ReadAt(buf, PageSize); !errors.Is(err, ErrRevoked) {
		t.Fatalf("host read of revoked page: %v", err)
	}
	// Other pages still work.
	if err := hv.WriteAt([]byte("fine"), 0); err != nil {
		t.Fatal(err)
	}
	// Guest always has access.
	got := make([]byte, 5)
	w.Region().ReadAt(got, PageSize)
	if string(got) != "hello" {
		t.Fatalf("guest read %q", got)
	}

	w.Reshare(PageSize, 1)
	if err := hv.WriteAt([]byte("ok"), PageSize); err != nil {
		t.Fatalf("after reshare: %v", err)
	}
	c := m.Snapshot()
	if c.PagesRevoked != 1 {
		t.Fatalf("PagesRevoked = %d, want 1", c.PagesRevoked)
	}
	if c.PagesShared != 4+1 {
		t.Fatalf("PagesShared = %d, want 5", c.PagesShared)
	}
}

func TestRevokeSpanningPages(t *testing.T) {
	w, _ := NewWindow(8*PageSize, nil)
	// Range crossing pages 2,3,4.
	w.Revoke(2*PageSize+100, 2*PageSize)
	if got := w.SharedPages(); got != 5 {
		t.Fatalf("SharedPages = %d, want 5", got)
	}
	hv := w.HostView()
	if _, err := hv.U32(3 * PageSize); !errors.Is(err, ErrRevoked) {
		t.Fatal("page 3 should be revoked")
	}
	if _, err := hv.U32(5 * PageSize); err != nil {
		t.Fatalf("page 5 should be shared: %v", err)
	}
}

func TestRevokeIdempotent(t *testing.T) {
	var m Meter
	w, _ := NewWindow(2*PageSize, &m)
	w.Revoke(0, PageSize)
	w.Revoke(0, PageSize)
	if m.Snapshot().PagesRevoked != 1 {
		t.Fatalf("double revoke double counted: %d", m.Snapshot().PagesRevoked)
	}
	w.Revoke(0, 0) // no-op
	if m.Snapshot().PagesRevoked != 1 {
		t.Fatal("zero-length revoke changed state")
	}
}

func TestHostViewScalarFaults(t *testing.T) {
	w, _ := NewWindow(2*PageSize, nil)
	hv := w.HostView()
	if err := hv.SetU64(8, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := hv.U64(8); err != nil || v != 42 {
		t.Fatalf("U64 = %d, %v", v, err)
	}
	if err := hv.SetU32(16, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := hv.U32(16); err != nil || v != 7 {
		t.Fatalf("U32 = %d, %v", v, err)
	}
	w.Revoke(0, PageSize)
	if err := hv.SetU64(8, 1); !errors.Is(err, ErrRevoked) {
		t.Fatal("SetU64 on revoked page")
	}
	if _, err := hv.U32(8); !errors.Is(err, ErrRevoked) {
		t.Fatal("U32 on revoked page")
	}
	if err := hv.SetU32(8, 1); !errors.Is(err, ErrRevoked) {
		t.Fatal("SetU32 on revoked page")
	}
	if _, err := hv.U64(8); !errors.Is(err, ErrRevoked) {
		t.Fatal("U64 on revoked page")
	}
}

// Property: revoking then resharing any range restores full host access,
// and SharedPages never leaves [0, Pages].
func TestRevokeReshareProperty(t *testing.T) {
	w, _ := NewWindow(8*PageSize, nil)
	f := func(off uint64, n uint16) bool {
		w.Revoke(off, int(n))
		sp := w.SharedPages()
		if sp < 0 || sp > w.Pages() {
			return false
		}
		w.Reshare(off, int(n))
		return w.SharedPages() == w.Pages()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyPollsCountedApart: empty polls travel through Snapshot, Sub,
// Add and String like every counter, but carry no modelled time — an
// idle loop that polls more often must not look more expensive.
func TestEmptyPollsCountedApart(t *testing.T) {
	var m Meter
	m.EmptyPoll(7)
	m.Check(2)
	c := m.Snapshot()
	if c.EmptyPolls != 7 || c.Checks != 2 {
		t.Fatalf("snapshot = %+v, want 7 empty polls and 2 checks", c)
	}
	if d := c.Sub(Costs{EmptyPolls: 3}); d.EmptyPolls != 4 {
		t.Fatalf("Sub = %+v", d)
	}
	if s := c.Add(Costs{EmptyPolls: 3}); s.EmptyPolls != 10 {
		t.Fatalf("Add = %+v", s)
	}
	if !strings.Contains(c.String(), "empty-polls=7") {
		t.Fatalf("String = %q", c.String())
	}
	p := DefaultCostParams()
	if got, want := c.ModelNanos(p), (Costs{Checks: 2}).ModelNanos(p); got != want {
		t.Fatalf("ModelNanos = %v, want %v: empty polls must weigh nothing", got, want)
	}
	var nilMeter *Meter
	nilMeter.EmptyPoll(1)
}
