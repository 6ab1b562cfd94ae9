package virtio

import (
	"errors"
	"fmt"
	"sync"

	"confio/internal/nic"
	"confio/internal/platform"
)

// Device is the honest host-side virtio-net device model. A malicious
// host does not use this type: it manipulates the queues and control
// plane directly (see the attack harness).
type Device struct {
	cfg   Config
	ctrl  *Control
	tx    *Queue
	rx    *Queue
	meter *platform.Meter

	mu          sync.Mutex
	txLastAvail uint64
	txUsed      uint64
	rxLastAvail uint64
	rxUsed      uint64
	intCount    uint64
}

// NewDevice attaches an honest device model to the queues.
func NewDevice(cfg Config, ctrl *Control, tx, rx *Queue, meter *platform.Meter) *Device {
	return &Device{cfg: cfg, ctrl: ctrl, tx: tx, rx: rx, meter: meter}
}

// Queues exposes the TX and RX virtqueues (for tests and attacks).
func (dv *Device) Queues() (tx, rx *Queue) { return dv.tx, dv.rx }

// Control exposes the control plane.
func (dv *Device) Control() *Control { return dv.ctrl }

// Pop dequeues the next driver transmit frame into buf.
func (dv *Device) Pop(buf []byte) (int, error) {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	avail := dv.tx.AvailIdx()
	if avail == dv.txLastAvail {
		return 0, ErrEmpty
	}
	id := dv.tx.AvailEntry(dv.txLastAvail)
	addr, dlen, _, _ := dv.tx.ReadDesc(uint64(id))
	if dlen == 0 || int(dlen) > dv.cfg.BufSize || int(dlen) > len(buf) {
		return 0, fmt.Errorf("virtio device: descriptor len %d out of range", dlen)
	}
	dv.tx.Bufs().ReadAt(buf[:dlen], addr)
	dv.tx.PublishUsed(dv.txUsed, uint32(id), 0)
	dv.txUsed++
	dv.txLastAvail++
	return int(dlen), nil
}

// Push delivers one frame into a driver-posted receive buffer.
func (dv *Device) Push(frame []byte) error {
	if len(frame) == 0 {
		return errors.New("virtio device: empty frame")
	}
	dv.mu.Lock()
	defer dv.mu.Unlock()
	avail := dv.rx.AvailIdx()
	if avail == dv.rxLastAvail {
		return ErrFull // no posted buffers
	}
	id := dv.rx.AvailEntry(dv.rxLastAvail)
	addr, dlen, flags, _ := dv.rx.ReadDesc(uint64(id))
	if flags&DescFWrite == 0 || dlen == 0 {
		return fmt.Errorf("virtio device: rx descriptor %d not writable", id)
	}
	n := len(frame)
	if uint32(n) > dlen {
		n = int(dlen) // honest device truncates to the posted buffer
	}
	dv.rx.Bufs().WriteAt(frame[:n], addr)
	dv.rx.PublishUsed(dv.rxUsed, uint32(id), uint32(n))
	dv.rxUsed++
	dv.rxLastAvail++
	dv.interrupt()
	return nil
}

// interrupt injects a receive interrupt into the guest — a TEE crossing.
// With event-idx negotiated the device suppresses most interrupts (a
// coarse 1-in-8 model of the real used_event protocol); the
// restrict-features retrofit therefore pays more exits.
func (dv *Device) interrupt() {
	dv.intCount++
	if dv.ctrl.DriverFeatures()&FeatEventIdx != 0 && dv.intCount%8 != 1 {
		return
	}
	dv.meter.Notify(1)
	dv.meter.CrossTEE(1)
}

// guestNIC adapts Driver to nic.Guest.
type guestNIC struct{ d *Driver }

// NIC returns the driver's nic.Guest view.
func (d *Driver) NIC() nic.Guest { return guestNIC{d} }

func (g guestNIC) Send(frame []byte) error {
	switch err := g.d.Send(frame); {
	case err == nil:
		return nil
	case errors.Is(err, ErrFull):
		return nic.ErrFull
	case errors.Is(err, ErrNeedsReset):
		return nic.ErrClosed
	default:
		return err
	}
}

func (g guestNIC) Recv() (nic.Frame, error) {
	f, err := g.d.Recv()
	switch {
	case err == nil:
		return f, nil
	case errors.Is(err, ErrEmpty):
		return nil, nic.ErrEmpty
	case errors.Is(err, ErrNeedsReset):
		return nil, nic.ErrClosed
	default:
		return nil, err
	}
}

func (g guestNIC) MAC() [6]byte { return g.d.cfg.MAC }
func (g guestNIC) MTU() int     { return g.d.cfg.MTU }

// ArmNotify implements nic.NotifyHost for the receive side. The driver
// publishes no wake threshold (the device's interrupt model is fixed),
// so arming is the lost-wakeup recheck alone: has the used index moved
// past what the driver consumed?
func (g guestNIC) ArmNotify() bool {
	g.d.mu.Lock()
	defer g.d.mu.Unlock()
	return g.d.rx.UsedIdx() != g.d.rxLastUsed
}

// SuppressNotify implements nic.NotifyHost; there is nothing to withdraw.
func (g guestNIC) SuppressNotify() {}

// NotifyChan implements nic.NotifyHost: the monitor on the RX used index.
func (g guestNIC) NotifyChan() <-chan struct{} { return g.d.rx.usedMoved }

// hostNIC adapts Device to nic.Host.
type hostNIC struct{ dv *Device }

// NIC returns the device's nic.Host view.
func (dv *Device) NIC() nic.Host { return hostNIC{dv} }

func (h hostNIC) Pop(buf []byte) (int, error) {
	n, err := h.dv.Pop(buf)
	if errors.Is(err, ErrEmpty) {
		return 0, nic.ErrEmpty
	}
	return n, err
}

func (h hostNIC) Push(frame []byte) error {
	err := h.dv.Push(frame)
	if errors.Is(err, ErrFull) {
		return nic.ErrFull
	}
	return err
}

func (h hostNIC) FrameCap() int { return h.dv.cfg.BufSize }

// ArmNotify implements nic.NotifyHost for the transmit side: the
// lost-wakeup recheck of the TX avail index.
func (h hostNIC) ArmNotify() bool {
	h.dv.mu.Lock()
	defer h.dv.mu.Unlock()
	return h.dv.tx.AvailIdx() != h.dv.txLastAvail
}

// SuppressNotify implements nic.NotifyHost; there is nothing to withdraw.
func (h hostNIC) SuppressNotify() {}

// NotifyChan implements nic.NotifyHost: the monitor on the TX avail index.
func (h hostNIC) NotifyChan() <-chan struct{} { return h.dv.tx.availMoved }
