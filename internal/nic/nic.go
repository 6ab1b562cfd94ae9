// Package nic defines the transport-neutral NIC contract that every
// confidential I/O interface in this repository implements — the paper's
// safe ring as well as the virtio and netvsc baselines — plus the pump
// that connects a host-side device backend to the simulated physical
// network.
//
// Guest is what the in-TEE network stack drives; Host is what the
// untrusted device model drives. Keeping both sides behind small
// non-blocking interfaces lets the experiment harness swap transports
// (and adversarial hosts) without touching the stack above.
package nic

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"confio/internal/simnet"
)

// ErrEmpty means no frame is currently available (poll again).
var ErrEmpty = errors.New("nic: no frame available")

// ErrFull means the transport has no room (retry after progress).
var ErrFull = errors.New("nic: transport full")

// ErrClosed means the endpoint was shut down or died fatally.
var ErrClosed = errors.New("nic: endpoint closed")

// ErrStalled means the transport fail-deaded because the host stopped
// making progress (see safering.ErrStalled). It matches ErrClosed via
// errors.Is, so generic teardown paths need no special case; stacks that
// want to report the stall distinctly test for ErrStalled first.
var ErrStalled = fmt.Errorf("%w: host stalled", ErrClosed)

// Frame is one received Ethernet frame. Bytes is valid until Release.
type Frame interface {
	Bytes() []byte
	Release()
}

// Guest is the guest-TEE side of a NIC.
type Guest interface {
	// Send enqueues one Ethernet frame; non-blocking.
	Send(frame []byte) error
	// Recv dequeues one received frame; non-blocking.
	Recv() (Frame, error)
	// MAC returns the deployment-fixed station address.
	MAC() [6]byte
	// MTU returns the deployment-fixed maximum payload.
	MTU() int
}

// Host is the host side of a NIC: the device backend the pump drives.
type Host interface {
	// Pop dequeues the next guest transmit frame into buf.
	Pop(buf []byte) (int, error)
	// Push delivers a frame from the network toward the guest.
	Push(frame []byte) error
	// FrameCap returns the largest frame the transport carries.
	FrameCap() int
}

// BatchGuest is a Guest whose transport can stage several frames under
// one lock acquisition and publish them with a single index store and
// doorbell (the safe ring's amortized datapath). Both calls are
// non-blocking and may return short counts on backpressure.
type BatchGuest interface {
	Guest
	// SendBatch enqueues up to len(frames) frames and returns how many
	// were accepted; (0, ErrFull) when nothing fit.
	SendBatch(frames [][]byte) (int, error)
	// RecvBatch fills out with up to len(out) received frames and
	// returns the count; (0, ErrEmpty) when none waited.
	RecvBatch(out []Frame) (int, error)
}

// BatchHost mirrors BatchGuest on the device side, letting the pump move
// bursts instead of single frames.
type BatchHost interface {
	Host
	// PopBatch dequeues up to len(bufs) guest frames, one per buffer,
	// recording frame lengths in lens. Each buffer must hold FrameCap
	// bytes and len(lens) must cover len(bufs).
	PopBatch(bufs [][]byte, lens []int) (int, error)
	// PushBatch delivers up to len(frames) frames toward the guest and
	// returns how many were accepted; (0, ErrFull) when nothing fit.
	PushBatch(frames [][]byte) (int, error)
}

// NotifyHost is a wake source for a polling loop: something that can
// tell an idle loop its work has arrived. A ring consumer (a host
// backend draining guest transmits, a guest draining host receives)
// publishes a wake threshold ("wake me only when new work crosses my
// consumer position") and then waits on a doorbell or on a monitor of
// the producer index; the simulated wire's port is a wake source for
// the pump that drains it. Loops trade an arming handshake at the idle
// edge for not sleeping through their work.
//
// The channel and the threshold are hints, never trusted state: a peer
// that lies about (or ignores) the event index can delay the wakeup or
// cause a spurious one, which is why every wait on NotifyChan must be
// time-bounded. It can never corrupt the ring — consuming work still
// goes through the validated Pop/Recv path.
type NotifyHost interface {
	// ArmNotify publishes the wake threshold at the current consumer
	// position and reports whether work is already waiting (the
	// lost-wakeup recheck): true means poll again instead of blocking.
	ArmNotify() bool
	// SuppressNotify withdraws the threshold while the loop actively
	// polls, eliding peer doorbells under sustained load.
	SuppressNotify()
	// NotifyChan returns the wake trigger to wait on, or nil when the
	// source has none. Re-fetched before every wait: reincarnation
	// replaces it.
	NotifyChan() <-chan struct{}
}

// BufFrame is a trivial Frame over a private byte slice.
type BufFrame struct {
	B        []byte
	OnFree   func()
	released atomic.Bool
}

// Bytes returns the frame contents.
func (f *BufFrame) Bytes() []byte { return f.B }

// Release invokes OnFree once, even under concurrent callers.
func (f *BufFrame) Release() {
	if !f.released.CompareAndSwap(false, true) {
		return
	}
	if f.OnFree != nil {
		f.OnFree()
	}
}

// Pump shuttles frames between a Host backend and a simnet port with one
// polling goroutine, mirroring a host device model thread. Polling is
// the paper's default (no notifications); when both directions are idle
// the pump waits through its Idler, woken by the backend's ring or by a
// frame arriving on the wire, so tests don't burn a core.
type Pump struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// txFrames / rxFrames count frames moved in each direction. They are
	// atomics, not mutex-guarded fields: accounting sits on the per-burst
	// hot path and must not add a lock acquisition (or a cacheline
	// handoff with readers) to every burst.
	txFrames atomic.Uint64
	rxFrames atomic.Uint64
	running  atomic.Int32
}

// StartPump begins shuttling between h and port until Stop.
func StartPump(h Host, port *simnet.Port) *Pump {
	p := &Pump{stop: make(chan struct{})}
	p.wg.Add(1)
	p.running.Add(1)
	go p.run(h, port)
	return p
}

// Running reports how many pump goroutines are still alive. It reaches
// zero after Stop — or earlier, when the backend fail-deads and the pump
// collects itself (tests use it as a goroutine-leak gauge).
func (p *Pump) Running() int { return int(p.running.Load()) }

// pumpBurst bounds the frames moved per direction per loop iteration.
const pumpBurst = 64

// The pumps' idle ladder: the first wait after the spin budget, doubling
// per further idle wait up to the cap. The pumps wake on the backend's
// ring and on the wire, but the guest controls when its ring wakes the
// host, so the cap bounds every wait: it is the worst-case added latency
// a silent wake can impose.
const (
	pumpWaitMin = 20 * time.Microsecond
	pumpWaitMax = 200 * time.Microsecond
)

// singleHost adapts a plain Host to BatchHost by moving one frame per
// call, so non-batch backends keep their per-frame pacing.
type singleHost struct{ Host }

func (s singleHost) PopBatch(bufs [][]byte, lens []int) (int, error) {
	n, err := s.Pop(bufs[0])
	if err != nil {
		return 0, err
	}
	lens[0] = n
	return 1, nil
}

func (s singleHost) PushBatch(frames [][]byte) (int, error) {
	if err := s.Push(frames[0]); err != nil {
		return 0, err
	}
	return 1, nil
}

func (p *Pump) run(h Host, port *simnet.Port) {
	defer p.wg.Done()
	defer p.running.Add(-1)
	nh, _ := h.(NotifyHost)
	idler := NewIdler(pumpWaitMin, pumpWaitMax, nh, port)
	bh, ok := h.(BatchHost)
	burst := pumpBurst
	if !ok {
		bh, burst = singleHost{h}, 1
	}
	bufs := make([][]byte, burst)
	for i := range bufs {
		bufs[i] = make([]byte, h.FrameCap())
	}
	lens := make([]int, burst)
	inbound := make([][]byte, 0, pumpBurst)
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		worked := false

		// Guest -> network: drain a burst of transmit frames. A terminal
		// backend error (ErrClosed: the device fail-deaded) collects the
		// pump — polling a dead device forever would leak this goroutine
		// until someone remembered to call Stop.
		n, err := bh.PopBatch(bufs, lens)
		if err != nil && !errors.Is(err, ErrEmpty) {
			return
		}
		if n > 0 {
			sent := uint64(0)
			for i := 0; i < n; i++ {
				if serr := port.Send(bufs[i][:lens[i]]); serr == nil {
					sent++
				}
			}
			p.txFrames.Add(sent)
			worked = true
		}

		// Network -> guest: collect whatever the wire delivered, then
		// hand it to the backend as one burst.
		inbound = inbound[:0]
		for len(inbound) < pumpBurst {
			f, ok := port.Recv()
			if !ok {
				break
			}
			inbound = append(inbound, f)
		}
		if len(inbound) > 0 {
			sent, _ := pushRetry(bh, inbound)
			p.rxFrames.Add(uint64(sent))
			worked = true
		}

		if worked {
			idler.Worked()
		} else if !idler.Idle(p.stop) {
			return
		}
	}
}

// pushRetry pushes a burst toward the guest, retrying briefly on
// transient backpressure and then dropping the remainder (DoS is out of
// scope, drops are the device's prerogative). It returns how many frames
// were accepted and the terminal error that ended the burst, if any.
func pushRetry(h BatchHost, frames [][]byte) (int, error) {
	sent := 0
	for attempt := 0; attempt < 100 && sent < len(frames); attempt++ {
		n, err := h.PushBatch(frames[sent:])
		sent += n
		if err == nil || n > 0 {
			continue // progress: try the remainder immediately
		}
		if !errors.Is(err, ErrFull) {
			return sent, err
		}
		time.Sleep(10 * time.Microsecond)
	}
	return sent, nil
}

// Counts returns frames pumped (tx = guest->net, rx = net->guest).
func (p *Pump) Counts() (tx, rx uint64) {
	return p.txFrames.Load(), p.rxFrames.Load()
}

// Stop halts the pump and waits for its goroutine. Idempotent.
func (p *Pump) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
}
