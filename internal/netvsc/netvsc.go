// Package netvsc is the second lift-and-shift baseline: a model of the
// Hyper-V vmbus network channel (netvsc), the driver family whose
// hardening history the paper studies in Figure 3.
//
// Unlike virtio's descriptor rings, vmbus channels are *byte* rings with
// variable-length messages inline: a header carries the message type,
// payload length, and a transaction id that the historical driver used
// as a raw pointer — the bug class behind several of the "add checks"
// commits ("Add validation for untrusted Hyper-V values"). The model
// reproduces:
//
//   - inbound length fields the driver must bound (or be led out of the
//     message into stale ring bytes),
//   - transaction ids the driver must validate against its own pending
//     table (or complete the wrong send, twice),
//   - the systematic SWIOTLB copy applied when the channel is treated
//     as untrusted, and its cost.
//
// The Hardening toggles mirror Figure 3's commit categories, like
// package virtio does for Figure 4.
package netvsc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/shmem"
)

// Message types on the channel.
const (
	// MsgData carries one Ethernet frame (RNDIS data packet analogue).
	MsgData uint32 = 1
	// MsgComplete acknowledges a transmitted frame by transaction id.
	MsgComplete uint32 = 2
)

const headerBytes = 16 // type u32, len u32, xactid u64

// Hardening mirrors the Figure 3 commit categories for netvsc.
type Hardening struct {
	Checks   bool // validate untrusted Hyper-V values (lengths, ids)
	MemInit  bool // scrub ring memory before reuse
	Copies   bool // SWIOTLB-style systematic staging copy
	Races    bool // snapshot headers once instead of re-reading
	Restrict bool // refuse oversized/unknown message types outright
}

// FullHardening enables every retrofit.
func FullHardening() Hardening {
	return Hardening{Checks: true, MemInit: true, Copies: true, Races: true, Restrict: true}
}

// Config fixes the channel geometry.
type Config struct {
	MAC [6]byte
	MTU int
	// RingBytes is the byte capacity of each direction (power of two).
	RingBytes int
	// MaxInflight bounds pending unacknowledged sends (power of two).
	MaxInflight int
	Hardening   Hardening
}

// DefaultConfig matches the other transports' scale.
func DefaultConfig() Config {
	return Config{
		MAC:         [6]byte{0x02, 0x00, 0x00, 0xD2, 0x00, 0x01},
		MTU:         1500,
		RingBytes:   1 << 19, // 512 KiB per direction
		MaxInflight: 256,
	}
}

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("netvsc: invalid config")

// ErrFull means the outbound ring has no room.
var ErrFull = errors.New("netvsc: ring full")

// ErrEmpty means no inbound message is pending.
var ErrEmpty = errors.New("netvsc: ring empty")

// ErrChannel is a fatal channel inconsistency detected by a hardened
// driver.
var ErrChannel = errors.New("netvsc: channel inconsistency")

// Validate checks structural requirements.
func (c Config) Validate() error {
	pow2 := func(v int) bool { return v > 0 && v&(v-1) == 0 }
	switch {
	case c.MTU < 64 || c.MTU > 9216:
		return fmt.Errorf("%w: MTU %d", ErrConfig, c.MTU)
	case !pow2(c.RingBytes) || c.RingBytes < 4*(c.MTU+headerBytes+64):
		return fmt.Errorf("%w: ring bytes %d", ErrConfig, c.RingBytes)
	case !pow2(c.MaxInflight) || c.MaxInflight < 2:
		return fmt.Errorf("%w: max inflight %d", ErrConfig, c.MaxInflight)
	}
	return nil
}

func (c Config) maxPayload() int { return c.MTU + 64 }

// ring is one vmbus channel direction: message bytes in the masked shared
// region, atomic byte offsets (shared cache lines) and a monitor on prod.
type ring struct {
	mem *shmem.Region
	//ciovet:shared producer byte position (monotonic), peer-advanced
	prod atomic.Uint64
	//ciovet:shared consumer byte position (monotonic), peer-advanced
	cons  atomic.Uint64
	moved chan struct{} // see storeProd
}

func newRing(bytes int) (*ring, error) {
	mem, err := shmem.NewRegion(bytes)
	if err != nil {
		return nil, err
	}
	return &ring{mem: mem, moved: make(chan struct{}, 1)}, nil
}

func align8(n int) int { return (n + 7) &^ 7 }

// writeMsg appends a message; returns false when there is no room.
func (r *ring) writeMsg(prod uint64, typ uint32, xact uint64, payload []byte) (newProd uint64, ok bool) {
	total := uint64(align8(headerBytes + len(payload)))
	cons := r.cons.Load()
	if prod-cons+total > uint64(r.mem.Size()) {
		return prod, false
	}
	r.mem.SetU32(prod, typ)
	r.mem.SetU32(prod+4, uint32(len(payload)))
	r.mem.SetU64(prod+8, xact)
	r.mem.WriteAt(payload, prod+headerBytes)
	return prod + total, true
}

// Channel is the shared state of one netvsc device instance: two byte
// rings (guest->host "out", host->guest "in").
type Channel struct {
	Cfg Config
	Out *ring // unexported type, exported field: accessed via methods below
	In  *ring
}

// OutMem / InMem expose the raw ring memory for the attack harness.
func (ch *Channel) OutMem() *shmem.Region { return ch.Out.mem }

// InMem exposes the inbound ring memory.
func (ch *Channel) InMem() *shmem.Region { return ch.In.mem }

// ForgeInProd lets a malicious host publish an arbitrary inbound
// producer offset.
func (ch *Channel) ForgeInProd(v uint64) { ch.In.storeProd(v) }

// InProd returns the inbound producer offset.
func (ch *Channel) InProd() uint64 { return ch.In.prod.Load() }

// Driver is the guest-side netvsc driver.
type Driver struct {
	cfg   Config
	meter *platform.Meter
	ch    *Channel

	mu   sync.Mutex
	dead error

	outProd     uint64
	outScrubbed uint64
	inCons      uint64

	nextXact uint64
	pending  []bool // pending[xact & (MaxInflight-1)]
	inflight int

	// Stats mirrors virtio.Stats semantics.
	blocked          uint64
	trustedUnchecked uint64

	pool sync.Pool
}

// Stats reports the driver's trust accounting.
type Stats struct {
	Blocked          uint64
	TrustedUnchecked uint64
}

// New creates a connected driver and honest host endpoint.
func New(cfg Config, meter *platform.Meter) (*Driver, *Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	out, err := newRing(cfg.RingBytes)
	if err != nil {
		return nil, nil, err
	}
	in, err := newRing(cfg.RingBytes)
	if err != nil {
		return nil, nil, err
	}
	ch := &Channel{Cfg: cfg, Out: out, In: in}
	d := &Driver{cfg: cfg, meter: meter, ch: ch}
	d.pending = make([]bool, cfg.MaxInflight)
	d.pool.New = func() any { return make([]byte, cfg.maxPayload()) }
	return d, &Host{cfg: cfg, ch: ch, meter: meter}, nil
}

// Channel exposes the shared channel state.
func (d *Driver) Channel() *Channel { return d.ch }

// Stats returns the trust accounting counters.
func (d *Driver) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{Blocked: d.blocked, TrustedUnchecked: d.trustedUnchecked}
}

// Dead returns the fatal error if the hardened driver gave up.
func (d *Driver) Dead() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead
}

func (d *Driver) fail(err error) error {
	if d.dead == nil {
		d.dead = err
	}
	return d.dead
}

// Send transmits one Ethernet frame.
func (d *Driver) Send(frame []byte) error {
	if len(frame) == 0 || len(frame) > d.cfg.maxPayload() {
		return fmt.Errorf("netvsc: frame size %d out of range", len(frame))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead != nil {
		return d.dead
	}
	if d.inflight >= d.cfg.MaxInflight {
		return ErrFull
	}
	if d.cfg.Hardening.MemInit {
		d.scrubConsumedLocked()
	}
	xact := d.nextXact
	slot := xact & uint64(d.cfg.MaxInflight-1)
	if d.pending[slot] {
		return ErrFull // wrapped onto an unacknowledged send
	}

	payload := frame
	if d.cfg.Hardening.Copies {
		staged := d.pool.Get().([]byte)
		copy(staged[:len(frame)], frame)
		d.meter.Copy(len(frame))
		payload = staged[:len(frame)]
		defer d.pool.Put(staged)
	}
	newProd, ok := d.ch.Out.writeMsg(d.outProd, MsgData, xact, payload)
	if !ok {
		return ErrFull
	}
	d.meter.Copy(len(frame))
	d.outProd = newProd
	d.ch.Out.storeProd(newProd)
	d.nextXact++
	d.pending[slot] = true
	d.inflight++
	d.meter.Notify(1) // vmbus signal
	d.meter.CrossTEE(1)
	return nil
}

// scrubConsumedLocked zeroes the outbound ring bytes the host has
// already consumed, so stale guest frames do not linger in host-visible
// memory ("add initialization to memory", Figure 3). The consumer offset
// is host-published; a bogus value is ignored rather than trusted.
func (d *Driver) scrubConsumedLocked() {
	cons := d.ch.Out.cons.Load()
	if cons < d.outScrubbed || cons > d.outProd {
		return
	}
	if n := cons - d.outScrubbed; n > 0 {
		zero := make([]byte, 4096)
		for off := d.outScrubbed; off < cons; {
			chunk := cons - off
			if chunk > uint64(len(zero)) {
				chunk = uint64(len(zero))
			}
			d.ch.Out.mem.WriteAt(zero[:chunk], off)
			off += chunk
		}
		d.meter.Copy(int(n))
		d.outScrubbed = cons
	}
}

// RxFrame is one received frame (always a private copy with Copies on;
// a zero-copy ring view otherwise).
type RxFrame struct {
	drv      *Driver
	data     []byte
	pooled   []byte
	released bool
}

// Bytes returns the frame contents.
func (f *RxFrame) Bytes() []byte { return f.data }

// Release returns pooled storage.
func (f *RxFrame) Release() {
	if f.released {
		return
	}
	f.released = true
	if f.pooled != nil {
		f.drv.pool.Put(f.pooled[:cap(f.pooled)])
		f.pooled = nil
	}
	f.data = nil
}

// Recv processes the next inbound message. Completion messages are
// handled internally (and may surface a fatal error); data messages are
// returned to the caller.
func (d *Driver) Recv() (*RxFrame, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Bound the messages drained per call: a forged producer offset in
	// the legacy (unchecked) configuration would otherwise walk the
	// parser through terabytes of phantom ring space in one call. The
	// CPU burn is an availability attack (out of the threat model); the
	// bound keeps the simulation responsive while preserving the
	// integrity consequences.
	for budget := 4096; budget > 0; budget-- {
		if d.dead != nil {
			return nil, d.dead
		}
		prod := d.ch.In.prod.Load()
		if prod == d.inCons {
			return nil, d.emptyPoll()
		}
		d.meter.Check(1)
		if prod-d.inCons > uint64(d.cfg.RingBytes) {
			if d.cfg.Hardening.Checks {
				d.blocked++
				return nil, d.fail(fmt.Errorf("%w: inbound producer %d", ErrChannel, prod))
			}
			d.trustedUnchecked++
		}

		base := d.inCons
		typ := d.ch.In.mem.U32(base)
		plen := d.ch.In.mem.U32(base + 4)
		xact := d.ch.In.mem.U64(base + 8)

		// Bound the payload length. Hardened: within the published data
		// and the frame maximum. Legacy: trusted outright — a lying
		// length walks the parser into stale ring bytes (leak) and
		// desynchronizes message framing.
		maxLen := uint32(d.cfg.maxPayload())
		avail := uint32(prod - base - headerBytes)
		if d.cfg.Hardening.Checks {
			d.meter.Check(2)
			if plen > maxLen || plen > avail || (typ == MsgData && plen == 0) {
				d.blocked++
				return nil, d.fail(fmt.Errorf("%w: inbound length %d (avail %d)", ErrChannel, plen, avail))
			}
		} else if plen > maxLen || plen > avail {
			d.trustedUnchecked++
			if plen > uint32(d.cfg.RingBytes)-headerBytes {
				plen = uint32(d.cfg.RingBytes) - headerBytes
			}
		}
		if !d.cfg.Hardening.Races {
			// Legacy double fetch: re-read the header length for the
			// consume-offset arithmetic (the device may have changed it
			// since the copy bound was taken).
			//ciovet:allow doublefetch deliberate legacy baseline: models the un-hardened vmbus re-read (Fig. 3 bug class), gated off by Hardening.Races
			plen2 := d.ch.In.mem.U32(base + 4)
			if plen2 != plen {
				d.trustedUnchecked++
			}
			d.inCons = base + uint64(align8(headerBytes+int(plen2)))
		} else {
			d.inCons = base + uint64(align8(headerBytes+int(plen)))
		}
		d.ch.In.cons.Store(d.inCons)

		switch typ {
		case MsgComplete:
			d.handleComplete(xact)
			continue // completions are internal; keep draining

		case MsgData:
			if d.cfg.Hardening.Copies {
				buf := d.pool.Get().([]byte)
				if int(plen) > cap(buf) {
					buf = make([]byte, plen)
				}
				d.ch.In.mem.ReadAt(buf[:plen], base+headerBytes)
				d.meter.Copy(int(plen))
				return &RxFrame{drv: d, data: buf[:plen], pooled: buf}, nil
			}
			// Zero-copy view when contiguous, else copy.
			off := (base + headerBytes) & uint64(d.cfg.RingBytes-1)
			if off+uint64(plen) <= uint64(d.cfg.RingBytes) {
				//ciovet:allow sharedescape deliberate legacy baseline: un-hardened zero-copy view, gated off by Hardening.Copies
				return &RxFrame{drv: d, data: d.ch.In.mem.Slice(off, int(plen))}, nil
			}
			buf := make([]byte, plen)
			d.ch.In.mem.ReadAt(buf, base+headerBytes)
			return &RxFrame{drv: d, data: buf}, nil

		default:
			if d.cfg.Hardening.Restrict {
				d.blocked++
				return nil, d.fail(fmt.Errorf("%w: unknown message type %d", ErrChannel, typ))
			}
			d.trustedUnchecked++
			continue // legacy: silently skip unknown messages
		}
	}
	return nil, ErrEmpty // drain budget exhausted; caller polls again
}

// handleComplete retires a pending send named by a host transaction id —
// the value the historical driver trusted as a pointer.
func (d *Driver) handleComplete(xact uint64) {
	slot := xact & uint64(d.cfg.MaxInflight-1)
	if d.cfg.Hardening.Checks {
		d.meter.Check(1)
		if xact >= d.nextXact || !d.pending[slot] {
			d.blocked++
			return
		}
	} else if xact >= d.nextXact || !d.pending[slot] {
		// Legacy: complete whatever the masked id names (double
		// completion / wrong completion corrupts the pending table).
		d.trustedUnchecked++
	}
	if d.pending[slot] {
		d.pending[slot] = false
		d.inflight--
	} else if !d.cfg.Hardening.Checks {
		// Double completion drives the inflight count negative in the
		// legacy driver; clamp to keep the simulation running.
		if d.inflight > 0 {
			d.inflight--
		}
	}
}

// Host is the honest host-side endpoint of the channel.
type Host struct {
	cfg   Config
	ch    *Channel
	meter *platform.Meter

	mu      sync.Mutex
	inProd  uint64
	outCons uint64
}

// Pop dequeues the next guest frame into buf and acknowledges it.
func (h *Host) Pop(buf []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	prod := h.ch.Out.prod.Load()
	if prod == h.outCons {
		return 0, ErrEmpty
	}
	base := h.outCons
	typ := h.ch.Out.mem.U32(base)
	plen := h.ch.Out.mem.U32(base + 4)
	xact := h.ch.Out.mem.U64(base + 8)
	if typ != MsgData || plen == 0 || int(plen) > h.cfg.maxPayload() || int(plen) > len(buf) {
		return 0, fmt.Errorf("netvsc host: bad outbound message type=%d len=%d", typ, plen)
	}
	h.ch.Out.mem.ReadAt(buf[:plen], base+headerBytes)
	h.outCons = base + uint64(align8(headerBytes+int(plen)))
	h.ch.Out.cons.Store(h.outCons)

	// Acknowledge with a completion message on the inbound ring.
	newProd, ok := h.ch.In.writeMsg(h.inProd, MsgComplete, xact, nil)
	if !ok {
		return 0, ErrFull
	}
	h.inProd = newProd
	h.ch.In.storeProd(newProd)
	h.meter.Notify(1)
	h.meter.CrossTEE(1)
	return int(plen), nil
}

// Push delivers one frame toward the guest.
func (h *Host) Push(frame []byte) error {
	if len(frame) == 0 || len(frame) > h.cfg.maxPayload() {
		return fmt.Errorf("netvsc host: frame size %d out of range", len(frame))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	newProd, ok := h.ch.In.writeMsg(h.inProd, MsgData, 0, frame)
	if !ok {
		return ErrFull
	}
	h.inProd = newProd
	h.ch.In.storeProd(newProd)
	h.meter.Notify(1)
	h.meter.CrossTEE(1)
	return nil
}

// emptyPoll meters a receive poll that found the inbound producer where
// the driver left it: an empty poll, not a validation check, so modelled
// cost does not grow with how often an idle loop polls.
func (d *Driver) emptyPoll() error {
	d.meter.EmptyPoll(1)
	return ErrEmpty
}

// storeProd publishes the producer offset and trips the monitor on it:
// moved models a monitor armed on prod's cache line, so every producer
// store leaves one coalescing token that an idle consumer waits on
// instead of a clock. The send never blocks. A hint only — every poll
// still parses the ring.
func (r *ring) storeProd(v uint64) {
	r.prod.Store(v)
	select {
	case r.moved <- struct{}{}:
	default:
	}
}

// --- nic adapters ---

type guestNIC struct{ d *Driver }

// NIC returns the driver's nic.Guest view.
func (d *Driver) NIC() nic.Guest { return guestNIC{d} }

func (g guestNIC) Send(frame []byte) error {
	switch err := g.d.Send(frame); {
	case err == nil:
		return nil
	case errors.Is(err, ErrFull):
		return nic.ErrFull
	case errors.Is(err, ErrChannel):
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
	case errors.Is(err, ErrChannel):
		return nil, nic.ErrClosed
	default:
		return nil, err
	}
}

func (g guestNIC) MAC() [6]byte { return g.d.cfg.MAC }
func (g guestNIC) MTU() int     { return g.d.cfg.MTU }

// ArmNotify implements nic.NotifyHost for the receive side. The channel
// has no wake threshold to publish, so arming is the lost-wakeup
// recheck alone: has the inbound producer moved past the driver?
func (g guestNIC) ArmNotify() bool {
	g.d.mu.Lock()
	defer g.d.mu.Unlock()
	return g.d.ch.In.prod.Load() != g.d.inCons
}

// SuppressNotify implements nic.NotifyHost; there is nothing to withdraw.
func (g guestNIC) SuppressNotify() {}

// NotifyChan implements nic.NotifyHost: the inbound producer's monitor.
func (g guestNIC) NotifyChan() <-chan struct{} { return g.d.ch.In.moved }

type hostNIC struct{ h *Host }

// NIC returns the host endpoint's nic.Host view.
func (h *Host) NIC() nic.Host { return hostNIC{h} }

func (n hostNIC) Pop(buf []byte) (int, error) {
	c, err := n.h.Pop(buf)
	if errors.Is(err, ErrEmpty) {
		return 0, nic.ErrEmpty
	}
	return c, err
}

func (n hostNIC) Push(frame []byte) error {
	err := n.h.Push(frame)
	if errors.Is(err, ErrFull) {
		return nic.ErrFull
	}
	return err
}

func (n hostNIC) FrameCap() int { return n.h.cfg.maxPayload() }

// ArmNotify implements nic.NotifyHost for the transmit side: the
// lost-wakeup recheck of the outbound producer.
func (n hostNIC) ArmNotify() bool {
	n.h.mu.Lock()
	defer n.h.mu.Unlock()
	return n.h.ch.Out.prod.Load() != n.h.outCons
}

// SuppressNotify implements nic.NotifyHost; there is nothing to withdraw.
func (n hostNIC) SuppressNotify() {}

// NotifyChan implements nic.NotifyHost: the outbound producer's monitor.
func (n hostNIC) NotifyChan() <-chan struct{} { return n.h.ch.Out.moved }
