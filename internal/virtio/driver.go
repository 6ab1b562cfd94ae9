package virtio

import (
	"errors"
	"fmt"
	"sync"

	"confio/internal/platform"
)

// ErrFull means no transmit descriptor is free.
var ErrFull = errors.New("virtio: no free descriptors")

// ErrEmpty means no received frame is pending.
var ErrEmpty = errors.New("virtio: no used buffers")

// ErrNeedsReset is a fatal device-state inconsistency detected by a
// hardened driver (the virtio analogue of giving up on the device).
var ErrNeedsReset = errors.New("virtio: device needs reset")

// ErrNegotiation reports a failed feature/status handshake.
var ErrNegotiation = errors.New("virtio: negotiation failed")

// Stats records how the driver's trust decisions played out. Blocked
// counts device-supplied values rejected by retrofitted checks;
// TrustedUnchecked counts values that *failed* a (shadow) check but were
// trusted anyway because the corresponding hardening is disabled — the
// simulation's accounting of "this is where the unhardened driver is
// exploited".
type Stats struct {
	Blocked          uint64
	TrustedUnchecked uint64
	Kicks            uint64
	Frames           uint64
}

// Driver is the guest-side virtio-net driver.
type Driver struct {
	cfg   Config
	meter *platform.Meter
	ctrl  *Control
	tx    *Queue
	rx    *Queue

	mu   sync.Mutex
	dead error

	// negotiated state
	features uint64
	// plannedFeatures is what the driver validated before the (possibly
	// re-fetched) store; divergence is the feature TOCTOU.
	plannedFeatures uint64

	// TX private state
	txAvail       uint64
	txLastUsed    uint64
	txFree        []uint16
	txOutstanding []bool
	txLens        []uint32

	// RX private state
	rxAvail       uint64
	rxLastUsed    uint64
	rxOutstanding []bool
	txWasEmpty    bool

	stats Stats
	pool  sync.Pool
}

// NewPair constructs a connected driver and honest device, running the
// full status/feature negotiation. The attack harness builds malicious
// pairs by constructing the pieces itself.
func NewPair(cfg Config, meter *platform.Meter) (*Driver, *Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	tx, err := NewQueue(cfg.QueueSize, cfg.BufSize)
	if err != nil {
		return nil, nil, err
	}
	rx, err := NewQueue(cfg.QueueSize, cfg.BufSize)
	if err != nil {
		return nil, nil, err
	}
	ctrl := NewControl(knownFeatures)
	dev := NewDevice(cfg, ctrl, tx, rx, meter)
	drv, err := NewDriver(cfg, ctrl, tx, rx, meter)
	if err != nil {
		return nil, nil, err
	}
	return drv, dev, nil
}

// NewDriver initializes the driver over existing queues and control
// plane, performing negotiation. Exported separately so adversarial
// control planes and devices can be substituted.
func NewDriver(cfg Config, ctrl *Control, tx, rx *Queue, meter *platform.Meter) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Driver{cfg: cfg, meter: meter, ctrl: ctrl, tx: tx, rx: rx, txWasEmpty: true}
	d.txFree = make([]uint16, cfg.QueueSize)
	for i := range d.txFree {
		d.txFree[i] = uint16(cfg.QueueSize - 1 - i)
	}
	d.txOutstanding = make([]bool, cfg.QueueSize)
	d.txLens = make([]uint32, cfg.QueueSize)
	d.rxOutstanding = make([]bool, cfg.QueueSize)
	d.pool.New = func() any { return make([]byte, cfg.BufSize) }

	if err := d.negotiate(); err != nil {
		return nil, err
	}
	d.postAllRx()
	return d, nil
}

// negotiate runs the stateful virtio status FSM — exactly the control
// plane complexity the paper's safe ring eliminates.
func (d *Driver) negotiate() error {
	d.ctrl.WriteStatus(StatusAcknowledge | StatusDriver)

	offered := d.ctrl.ReadDeviceFeatures() // validation fetch
	want := d.cfg.WantFeatures & offered & knownFeatures
	if d.cfg.Hardening.RestrictFeatures {
		want &^= FeatIndirectDesc | FeatEventIdx
	}
	d.plannedFeatures = want

	if !d.cfg.Hardening.RaceProtect {
		// Legacy behaviour: the store path re-reads the (device-owned)
		// feature register. A device that flaps features between the
		// two fetches desynchronizes what was validated from what is
		// enabled — the control-path double fetch.
		offered2 := d.ctrl.ReadDeviceFeatures()
		want2 := d.cfg.WantFeatures & offered2 & knownFeatures
		if d.cfg.Hardening.RestrictFeatures {
			want2 &^= FeatIndirectDesc | FeatEventIdx
		}
		if want2 != want {
			d.stats.TrustedUnchecked++
		}
		want = want2
	}
	d.features = want

	d.ctrl.WriteDriverFeatures(want)
	d.ctrl.WriteStatus(StatusAcknowledge | StatusDriver | StatusFeaturesOK)
	st := d.ctrl.ReadStatus()
	if st&StatusFeaturesOK == 0 || st&(StatusNeedsReset|StatusFailed) != 0 {
		return fmt.Errorf("%w: device status %#x", ErrNegotiation, st)
	}
	d.ctrl.WriteStatus(st | StatusDriverOK)
	return nil
}

// Features returns the enabled feature set.
func (d *Driver) Features() uint64 { return d.features }

// PlannedFeatures returns the set the driver validated before enabling.
func (d *Driver) PlannedFeatures() uint64 { return d.plannedFeatures }

// Stats returns a snapshot of the trust accounting.
func (d *Driver) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Dead returns the fatal error, if the (hardened) driver gave up.
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

// postAllRx exposes every receive buffer to the device.
func (d *Driver) postAllRx() {
	for i := 0; i < d.cfg.QueueSize; i++ {
		d.postRxLocked(uint16(i))
	}
}

func (d *Driver) postRxLocked(id uint16) {
	if d.cfg.Hardening.MemInit {
		// Zero before exposure so stale guest data never leaks through a
		// short device write ("add initialization to memory").
		zero := make([]byte, d.cfg.BufSize)
		d.rx.Bufs().WriteAt(zero, d.rx.BufAddr(int(id)))
		d.meter.Copy(d.cfg.BufSize)
	}
	d.rx.WriteDesc(uint64(id), d.rx.BufAddr(int(id)), uint32(d.cfg.BufSize), DescFWrite, 0)
	d.rxOutstanding[id] = true
	d.rx.PublishAvail(d.rxAvail, id)
	d.rxAvail++
	d.kick()
}

// kick notifies the device (an MMIO write, i.e. a TEE exit in a CVM).
// With event-idx negotiated the device suppresses most kicks; the
// restricted-features retrofit loses that optimization — one of the
// paper's "performance tends to suffer from hardening" effects.
func (d *Driver) kick() {
	if d.features&FeatEventIdx != 0 && !d.txWasEmpty {
		return
	}
	d.stats.Kicks++
	d.meter.Notify(1)
	d.meter.CrossTEE(1)
}

// Send transmits one Ethernet frame.
func (d *Driver) Send(frame []byte) error {
	if len(frame) == 0 || len(frame) > d.cfg.BufSize {
		return fmt.Errorf("virtio: frame size %d out of range", len(frame))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead != nil {
		return d.dead
	}
	if err := d.reapTxLocked(); err != nil {
		return err
	}
	if len(d.txFree) == 0 {
		return ErrFull
	}
	id := d.txFree[len(d.txFree)-1]
	d.txFree = d.txFree[:len(d.txFree)-1]

	if d.cfg.Hardening.Copies {
		// SWIOTLB-style: stage through a bounce copy before the DMA
		// buffer — systematically, even though the guest owns the source
		// and a double fetch is impossible here ("add copies").
		staged := d.pool.Get().([]byte)
		copy(staged[:len(frame)], frame)
		d.meter.Copy(len(frame))
		d.tx.Bufs().WriteAt(staged[:len(frame)], d.tx.BufAddr(int(id)))
		d.pool.Put(staged)
	} else {
		d.tx.Bufs().WriteAt(frame, d.tx.BufAddr(int(id)))
	}
	d.meter.Copy(len(frame))

	d.tx.WriteDesc(uint64(id), d.tx.BufAddr(int(id)), uint32(len(frame)), 0, 0)
	d.txOutstanding[id] = true
	d.txLens[id] = uint32(len(frame))
	wasEmpty := d.txAvail == d.txLastUsed
	d.tx.PublishAvail(d.txAvail, id)
	d.txAvail++
	d.txWasEmpty = wasEmpty
	d.kick()
	d.txWasEmpty = false
	d.stats.Frames++
	return nil
}

// reapTxLocked processes transmit completions from the used ring.
func (d *Driver) reapTxLocked() error {
	used := d.tx.UsedIdx()
	d.meter.Check(1)
	pending := used - d.txLastUsed
	if pending > uint64(d.cfg.QueueSize) {
		if d.cfg.Hardening.Checks {
			d.stats.Blocked++
			return d.fail(fmt.Errorf("%w: used idx %d claims %d completions", ErrNeedsReset, used, pending))
		}
		// Unhardened: the driver would loop (size) times chasing the
		// bogus index; we cap the damage the same way its ring arithmetic
		// would, and record the unchecked trust.
		d.stats.TrustedUnchecked++
		pending = uint64(d.cfg.QueueSize)
	}
	for n := uint64(0); n < pending; n++ {
		id32, _ := d.tx.UsedEntry(d.txLastUsed + n)
		if d.cfg.Hardening.Checks {
			d.meter.Check(1)
			if id32 >= uint32(d.cfg.QueueSize) || !d.txOutstanding[id32] {
				d.stats.Blocked++
				continue
			}
		} else if id32 >= uint32(d.cfg.QueueSize) || !d.txOutstanding[id32&uint32(d.cfg.QueueSize-1)] {
			// Unhardened: a forged id corrupts the free list (the C
			// driver would free the wrong buffer); we reproduce the
			// corruption by freeing the masked id, possibly twice.
			d.stats.TrustedUnchecked++
		}
		id := uint16(id32 & uint32(d.cfg.QueueSize-1))
		d.txOutstanding[id] = false
		d.txFree = append(d.txFree, id)
	}
	d.txLastUsed += pending
	return nil
}

// RxFrame is one received frame. With the Copies retrofit the bytes are
// a private copy; without it they are (whenever possible) a zero-copy
// view into device-writable memory — the legacy behaviour whose double
// fetch the attack harness demonstrates.
type RxFrame struct {
	drv      *Driver
	data     []byte
	pooled   []byte
	id       uint16
	released bool
}

// Bytes returns the frame contents.
func (f *RxFrame) Bytes() []byte { return f.data }

// Release reposts the receive buffer to the device.
func (f *RxFrame) Release() {
	if f.released {
		return
	}
	f.released = true
	if f.pooled != nil {
		f.drv.pool.Put(f.pooled[:cap(f.pooled)])
		f.pooled = nil
	}
	f.drv.mu.Lock()
	f.drv.postRxLocked(f.id)
	f.drv.mu.Unlock()
	f.data = nil
}

// Recv returns the next received frame, ErrEmpty, or a fatal error.
func (d *Driver) Recv() (*RxFrame, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead != nil {
		return nil, d.dead
	}
	used := d.rx.UsedIdx()
	if used == d.rxLastUsed {
		d.meter.EmptyPoll(1)
		return nil, ErrEmpty
	}
	d.meter.Check(1)
	if used-d.rxLastUsed > uint64(d.cfg.QueueSize) {
		if d.cfg.Hardening.Checks {
			d.stats.Blocked++
			return nil, d.fail(fmt.Errorf("%w: rx used idx %d", ErrNeedsReset, used))
		}
		d.stats.TrustedUnchecked++
	}

	id32, n32 := d.rx.UsedEntry(d.rxLastUsed)
	qmask := uint32(d.cfg.QueueSize - 1)

	if d.cfg.Hardening.Checks {
		d.meter.Check(2)
		if id32 >= uint32(d.cfg.QueueSize) || !d.rxOutstanding[id32] {
			d.stats.Blocked++
			d.rxLastUsed++
			return nil, ErrEmpty
		}
	} else if id32 >= uint32(d.cfg.QueueSize) || !d.rxOutstanding[id32&qmask] {
		d.stats.TrustedUnchecked++
	}
	id := uint16(id32 & qmask)

	// Bound the length. The hardened driver bounds by its private record
	// of the buffer it posted; the legacy driver re-reads desc.len from
	// the device-writable descriptor table (double fetch) or, with
	// Checks off entirely, trusts used.len outright — which lets an
	// out-of-range length read past the posted buffer into its
	// neighbours (reproduced here byte-for-byte via the masked region).
	var bound uint32
	switch {
	case d.cfg.Hardening.Checks:
		bound = uint32(d.cfg.BufSize)
		if n32 > bound {
			d.stats.Blocked++
			d.rxLastUsed++
			return nil, ErrEmpty
		}
		bound = n32
	case d.cfg.Hardening.RaceProtect:
		_, dlen, _, _ := d.rx.ReadDesc(uint64(id)) // single snapshot
		bound = minU32(n32, dlen)
	default:
		// Unbounded trust, capped only by total buffer memory so the
		// simulation terminates; anything past BufSize is a leak.
		bound = minU32(n32, uint32(d.rx.Bufs().Size()))
		if n32 > uint32(d.cfg.BufSize) {
			d.stats.TrustedUnchecked++
		}
	}
	if bound == 0 {
		d.rxLastUsed++
		return nil, ErrEmpty
	}

	d.rxOutstanding[id] = false
	addr := d.rx.BufAddr(int(id))
	d.rxLastUsed++
	d.stats.Frames++

	if d.cfg.Hardening.Copies {
		buf := d.pool.Get().([]byte)
		if int(bound) > cap(buf) {
			buf = make([]byte, bound)
		}
		d.rx.Bufs().ReadAt(buf[:bound], addr)
		d.meter.Copy(int(bound))
		return &RxFrame{drv: d, data: buf[:bound], pooled: buf, id: id}, nil
	}
	// Legacy zero-copy view into shared memory. (Falls back to a copy
	// only when the read would wrap the region end.)
	if addr+uint64(bound) <= uint64(d.rx.Bufs().Size()) {
		//ciovet:allow sharedescape deliberate legacy baseline: un-hardened virtio zero-copy view, gated off by Hardening.Copies
		return &RxFrame{drv: d, data: d.rx.Bufs().Slice(addr, int(bound)), id: id}, nil
	}
	buf := make([]byte, bound)
	d.rx.Bufs().ReadAt(buf, addr)
	return &RxFrame{drv: d, data: buf, id: id}, nil
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
