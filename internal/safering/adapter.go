package safering

import (
	"errors"
	"sync"

	"confio/internal/nic"
)

// GuestNIC adapts an Endpoint to the transport-neutral nic.Guest contract.
type GuestNIC struct {
	EP *Endpoint
	// rxScratch recycles the []*RxFrame staging slice RecvBatch needs to
	// bridge the concrete batch API to []nic.Frame, keeping the adapter
	// off the steady-state allocation path.
	rxScratch sync.Pool
}

// NIC returns the endpoint's nic.Guest view.
func (e *Endpoint) NIC() nic.Guest { return &GuestNIC{EP: e} }

// Send implements nic.Guest. Stall deaths map to nic.ErrStalled (which
// still matches nic.ErrClosed) so the stack can report the distinction.
func (g *GuestNIC) Send(frame []byte) error {
	switch err := g.EP.Send(frame); {
	case err == nil:
		return nil
	case errors.Is(err, ErrRingFull):
		return nic.ErrFull
	case errors.Is(err, ErrStalled):
		return nic.ErrStalled
	case errors.Is(err, ErrDead):
		return nic.ErrClosed
	default:
		return err
	}
}

// Recv implements nic.Guest.
func (g *GuestNIC) Recv() (nic.Frame, error) {
	rx, err := g.EP.Recv()
	switch {
	case err == nil:
		return rx, nil
	case errors.Is(err, ErrRingEmpty):
		return nil, nic.ErrEmpty
	case errors.Is(err, ErrStalled):
		return nil, nic.ErrStalled
	case errors.Is(err, ErrDead):
		return nil, nic.ErrClosed
	default:
		return nil, err
	}
}

// SendBatch implements nic.BatchGuest: one lock acquisition, one index
// publication, at most one doorbell for the whole batch.
func (g *GuestNIC) SendBatch(frames [][]byte) (int, error) {
	n, err := g.EP.SendBatch(frames)
	switch {
	case err == nil:
		return n, nil
	case errors.Is(err, ErrRingFull):
		return n, nic.ErrFull
	case errors.Is(err, ErrStalled):
		return n, nic.ErrStalled
	case errors.Is(err, ErrDead):
		return n, nic.ErrClosed
	default:
		return n, err
	}
}

// RecvBatch implements nic.BatchGuest.
func (g *GuestNIC) RecvBatch(out []nic.Frame) (int, error) {
	sp, _ := g.rxScratch.Get().(*[]*RxFrame)
	if sp == nil || cap(*sp) < len(out) {
		s := make([]*RxFrame, len(out))
		sp = &s
	}
	rxs := (*sp)[:len(out)]
	n, err := g.EP.RecvBatch(rxs)
	for i := 0; i < n; i++ {
		out[i] = rxs[i]
		rxs[i] = nil // drop the reference before pooling the scratch
	}
	g.rxScratch.Put(sp)
	switch {
	case err == nil:
		return n, nil
	case errors.Is(err, ErrRingEmpty):
		return n, nic.ErrEmpty
	case errors.Is(err, ErrStalled):
		return n, nic.ErrStalled
	case errors.Is(err, ErrDead):
		return n, nic.ErrClosed
	default:
		return n, err
	}
}

// MAC implements nic.Guest.
func (g *GuestNIC) MAC() [6]byte { return g.EP.Config().MAC }

// MTU implements nic.Guest.
func (g *GuestNIC) MTU() int { return g.EP.Config().MTU }

// ArmNotify implements nic.NotifyHost for the receive side: publish the
// guest's RX wake threshold and report whether frames already wait.
func (g *GuestNIC) ArmNotify() bool { return g.EP.ArmRXNotify() }

// SuppressNotify implements nic.NotifyHost.
func (g *GuestNIC) SuppressNotify() { g.EP.SuppressRXNotify() }

// NotifyChan implements nic.NotifyHost: the RX doorbell when the device
// has one, else the monitor on the host's RXUsed producer index.
func (g *GuestNIC) NotifyChan() <-chan struct{} { return g.EP.rxWake() }

// HostNIC adapts a HostPort to the nic.Host contract.
type HostNIC struct {
	HP *HostPort
}

// NIC returns the host port's nic.Host view.
func (h *HostPort) NIC() nic.Host { return &HostNIC{HP: h} }

// Pop implements nic.Host.
func (h *HostNIC) Pop(buf []byte) (int, error) {
	n, err := h.HP.Pop(buf)
	switch {
	case err == nil:
		return n, nil
	case errors.Is(err, ErrRingEmpty):
		return 0, nic.ErrEmpty
	case errors.Is(err, ErrDead):
		return 0, nic.ErrClosed
	default:
		return 0, err
	}
}

// Push implements nic.Host.
func (h *HostNIC) Push(frame []byte) error {
	switch err := h.HP.Push(frame); {
	case err == nil:
		return nil
	case errors.Is(err, ErrRingFull):
		return nic.ErrFull
	case errors.Is(err, ErrDead):
		return nic.ErrClosed
	default:
		return err
	}
}

// PopBatch implements nic.BatchHost.
func (h *HostNIC) PopBatch(bufs [][]byte, lens []int) (int, error) {
	n, err := h.HP.PopBatch(bufs, lens)
	switch {
	case err == nil:
		return n, nil
	case errors.Is(err, ErrRingEmpty):
		return n, nic.ErrEmpty
	case errors.Is(err, ErrDead):
		return n, nic.ErrClosed
	default:
		return n, err
	}
}

// PushBatch implements nic.BatchHost.
func (h *HostNIC) PushBatch(frames [][]byte) (int, error) {
	n, err := h.HP.PushBatch(frames)
	switch {
	case err == nil:
		return n, nil
	case errors.Is(err, ErrRingFull):
		return n, nic.ErrFull
	case errors.Is(err, ErrDead):
		return n, nic.ErrClosed
	default:
		return n, err
	}
}

// FrameCap implements nic.Host.
func (h *HostNIC) FrameCap() int { return h.HP.Shared().Cfg.FrameCap() }

// ArmNotify implements nic.NotifyHost: publish the host's TX wake
// threshold and report whether work already waits (poll again, don't
// block).
func (h *HostNIC) ArmNotify() bool { return h.HP.ArmTXNotify() }

// SuppressNotify implements nic.NotifyHost.
func (h *HostNIC) SuppressNotify() { h.HP.SuppressTXNotify() }

// NotifyChan implements nic.NotifyHost: the TX doorbell when the device
// has one, else the monitor on the guest's TX producer index. The shared
// state is re-fetched on every call: reincarnation replaces both, and a
// pump that cached the old (sealed) bell or the old ring's monitor would
// sleep through the new incarnation's work until its bounded timeout.
func (h *HostNIC) NotifyChan() <-chan struct{} {
	sh := h.HP.Shared()
	if sh.TXBell != nil {
		return sh.TXBell.Chan()
	}
	return sh.TX.Indexes().ProdMoved()
}

// NIC returns the multi-queue endpoint's nic.MultiGuest view: a mux over
// per-queue GuestNIC adapters. Flow steering happens above this adapter
// (in the mux or the network stack), always from guest-private bytes.
func (m *MultiEndpoint) NIC() nic.MultiGuest {
	qs := make([]nic.BatchGuest, m.Queues())
	for i := range qs {
		qs[i] = &GuestNIC{EP: m.Queue(i)}
	}
	return nic.NewGuestMux(qs)
}

// NIC returns the multi-queue host port's nic.MultiHost view.
func (m *MultiHostPort) NIC() nic.MultiHost {
	qs := make([]nic.BatchHost, m.Queues())
	for i := range qs {
		qs[i] = &HostNIC{HP: m.Queue(i)}
	}
	return nic.NewHostMux(qs)
}

// HostNICs returns one nic.BatchHost per queue, index-aligned — the form
// nic.StartMultiPump consumes.
func (m *MultiHostPort) HostNICs() []nic.BatchHost {
	qs := make([]nic.BatchHost, m.Queues())
	for i := range qs {
		qs[i] = &HostNIC{HP: m.Queue(i)}
	}
	return qs
}
