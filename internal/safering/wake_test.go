package safering

import (
	"errors"
	"testing"
	"time"

	"confio/internal/platform"
)

// Producer-index monitor tests: without a doorbell, an idle consumer
// waits on the monitor of its peer's producer index.

// tokens drains ch without blocking and reports how many tokens it held.
func tokens(ch <-chan struct{}) int {
	n := 0
	for {
		select {
		case <-ch:
			n++
		default:
			return n
		}
	}
}

func TestStoreProdDepositsOneCoalescedToken(t *testing.T) {
	r, err := NewRing(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	ix := r.Indexes()
	if n := tokens(ix.ProdMoved()); n != 0 {
		t.Fatalf("fresh ring's monitor holds %d tokens, want 0", n)
	}
	for v := uint64(1); v <= 5; v++ {
		ix.StoreProd(v)
	}
	if n := tokens(ix.ProdMoved()); n != 1 {
		t.Fatalf("five stores left %d tokens, want 1", n)
	}
	// Only the producer index trips the monitor.
	ix.StoreCons(1)
	ix.StoreEvent(1)
	if n := tokens(ix.ProdMoved()); n != 0 {
		t.Fatalf("consumer and event stores left %d tokens, want 0", n)
	}
}

// TestMonitorWakesArmedGuest: a host push that lands between the guest's
// ArmNotify and its wait still wakes it — the token outlives the gap.
func TestMonitorWakesArmedGuest(t *testing.T) {
	ep, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &GuestNIC{EP: ep}
	hp := NewHostPort(ep.Shared())
	if g.ArmNotify() {
		t.Fatal("ArmNotify reported work on an empty ring")
	}
	ch := g.NotifyChan()
	select {
	case <-ch:
		t.Fatal("monitor fired before the host published anything")
	default:
	}
	if err := hp.Push(frame(64, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("host push did not wake the armed guest")
	}
	fr, err := ep.Recv()
	if err != nil {
		t.Fatalf("woken guest found no frame: %v", err)
	}
	fr.Release()
}

// TestMonitorWakesArmedHost mirrors the guest test for the host pump's
// transmit side.
func TestMonitorWakesArmedHost(t *testing.T) {
	ep, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := &HostNIC{HP: NewHostPort(ep.Shared())}
	if h.ArmNotify() {
		t.Fatal("ArmNotify reported work on an empty ring")
	}
	ch := h.NotifyChan()
	if err := ep.Send(frame(64, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("guest send did not wake the armed host")
	}
}

// TestDoorbellStaysWakeSourceWhenConfigured: with Notify on, both sides
// wait on the doorbell, so notification experiments keep their meaning.
func TestDoorbellStaysWakeSourceWhenConfigured(t *testing.T) {
	for _, notify := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Notify = notify
		ep, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		sh := ep.Shared()
		g := &GuestNIC{EP: ep}
		h := &HostNIC{HP: NewHostPort(sh)}
		wantG, wantH := sh.RXUsed.Indexes().ProdMoved(), sh.TX.Indexes().ProdMoved()
		if notify {
			wantG, wantH = sh.RXBell.Chan(), sh.TXBell.Chan()
		}
		if g.NotifyChan() != wantG || h.NotifyChan() != wantH {
			t.Fatalf("Notify=%v: wake sources are not the expected channels", notify)
		}
	}
}

// TestOldIndexesCannotWakeNewIncarnation mirrors the sealed-doorbell
// test: after Reincarnate, a host still storing into the old window's
// producer indexes never wakes a waiter on the new incarnation — even
// one whose adapter already waited on the old window.
func TestOldIndexesCannotWakeNewIncarnation(t *testing.T) {
	ep, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	old := ep.Shared()
	g := &GuestNIC{EP: ep}
	if g.NotifyChan() != old.RXUsed.Indexes().ProdMoved() {
		t.Fatal("guest does not wait on the RXUsed monitor")
	}
	old.RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
	if _, err := ep.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("overclaim not fatal: %v", err)
	}
	sh, err := ep.Reincarnate()
	if err != nil {
		t.Fatal(err)
	}
	h := &HostNIC{HP: NewHostPort(sh)}
	if g.ArmNotify() || h.ArmNotify() {
		t.Fatal("fresh incarnation reported waiting work")
	}
	gch, hch := g.NotifyChan(), h.NotifyChan()
	for v := uint64(1); v <= 3; v++ {
		old.RXUsed.Indexes().StoreProd(v)
		old.TX.Indexes().StoreProd(v)
	}
	if n := tokens(gch); n != 0 {
		t.Fatalf("old RXUsed stores woke the new guest %d times", n)
	}
	if n := tokens(hch); n != 0 {
		t.Fatalf("old TX stores woke the new host %d times", n)
	}
}

// TestEmptyPollIsNotACheck: a receive poll that finds nothing counts an
// empty poll and no validation check, so modelled cost does not grow
// with how often an idle loop polls.
func TestEmptyPollIsNotACheck(t *testing.T) {
	var m platform.Meter
	ep, err := New(DefaultConfig(), &m)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	for i := 0; i < 3; i++ {
		if _, err := ep.Recv(); !errors.Is(err, ErrRingEmpty) {
			t.Fatalf("Recv on an empty ring: %v", err)
		}
	}
	if _, err := ep.RecvBatch(make([]*RxFrame, 4)); !errors.Is(err, ErrRingEmpty) {
		t.Fatalf("RecvBatch on an empty ring: %v", err)
	}
	d := m.Snapshot().Sub(before)
	if d.EmptyPolls != 4 || d.Checks != 0 {
		t.Fatalf("four empty polls metered as %d empty polls and %d checks, want 4 and 0", d.EmptyPolls, d.Checks)
	}
	if err := NewHostPort(ep.Shared()).Push(frame(64, 1)); err != nil {
		t.Fatal(err)
	}
	before = m.Snapshot()
	fr, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	fr.Release()
	if d := m.Snapshot().Sub(before); d.EmptyPolls != 0 || d.Checks == 0 {
		t.Fatalf("a delivering poll metered %d empty polls and %d checks", d.EmptyPolls, d.Checks)
	}
}
