package main

import (
	"io"
	"time"

	"confio/internal/blockdev"
	"confio/internal/ctls"
	"confio/internal/nic"
	"confio/internal/tcp"
)

// The decorators below sit at the interface seams of the traced
// assembly. Each one exposes exactly the optional interfaces of what it
// wraps (BatchGuest, MultiGuest, BatchHost, NotifyHost, BatchDisk):
// netstack, the pumps and blockdev pick their batched paths by type
// assertion, and a decorator that hid one would trace a different
// program.

// --- guest side of a NIC: what netstack drives ---

type guestDec struct {
	g  nic.Guest
	tr *tracer
	// watch records the TCP ports of data frames (the gateway's ring).
	watch bool
}

// wrapGuest decorates g, keeping its batch and multi-queue views.
func wrapGuest(g nic.Guest, tr *tracer, watch bool) nic.Guest {
	base := &guestDec{g: g, tr: tr, watch: watch}
	if mg, ok := g.(nic.MultiGuest); ok {
		m := &multiGuestDec{batchGuestDec: &batchGuestDec{guestDec: base, bg: mg}}
		for i := 0; i < mg.NumQueues(); i++ {
			q := mg.Queue(i)
			m.queues = append(m.queues, &batchGuestDec{guestDec: &guestDec{g: q, tr: tr, watch: watch}, bg: q})
		}
		return m
	}
	if bg, ok := g.(nic.BatchGuest); ok {
		return &batchGuestDec{guestDec: base, bg: bg}
	}
	return base
}

// sent records a send call that started at start and the frames it
// accepted, all entering the ring when the call returned.
func (d *guestDec) sent(start int64, frames [][]byte) {
	at := d.tr.now()
	d.tr.endAt(lNICSend, 0, start, at, len(frames), 0)
	for _, f := range frames {
		d.tr.frameAt(seamGuestSend, f, at)
		if d.watch {
			d.tr.port(true, f)
		}
	}
}

func (d *guestDec) received(f nic.Frame) {
	d.tr.frame(seamGuestRecv, f.Bytes())
	if d.watch {
		d.tr.port(false, f.Bytes())
	}
}

func (d *guestDec) polled(n int) {
	d.tr.recvPolls.Add(1)
	if n == 0 {
		d.tr.recvEmpty.Add(1)
	}
}

func (d *guestDec) Send(frame []byte) error {
	start := d.tr.now()
	err := d.g.Send(frame)
	if err == nil {
		d.sent(start, [][]byte{frame})
	} else {
		d.sent(start, nil)
	}
	return err
}

func (d *guestDec) Recv() (nic.Frame, error) {
	f, err := d.g.Recv()
	if err != nil {
		d.polled(0)
		return nil, err
	}
	d.polled(1)
	d.received(f)
	return f, nil
}

func (d *guestDec) MAC() [6]byte { return d.g.MAC() }
func (d *guestDec) MTU() int     { return d.g.MTU() }

type batchGuestDec struct {
	*guestDec
	bg nic.BatchGuest
}

func (d *batchGuestDec) SendBatch(frames [][]byte) (int, error) {
	start := d.tr.now()
	n, err := d.bg.SendBatch(frames)
	d.sent(start, frames[:n])
	return n, err
}

func (d *batchGuestDec) RecvBatch(out []nic.Frame) (int, error) {
	n, err := d.bg.RecvBatch(out)
	d.polled(n)
	for _, f := range out[:n] {
		d.received(f)
	}
	return n, err
}

type multiGuestDec struct {
	*batchGuestDec
	queues []*batchGuestDec
}

func (d *multiGuestDec) NumQueues() int             { return len(d.queues) }
func (d *multiGuestDec) Queue(i int) nic.BatchGuest { return d.queues[i] }

// --- host side of a NIC: what the pumps drive ---

type hostDec struct {
	h  nic.Host
	tr *tracer
}

// wrapHost decorates h, keeping its batch and notify views.
func wrapHost(h nic.Host, tr *tracer) nic.Host {
	base := &hostDec{h: h, tr: tr}
	bh, batch := h.(nic.BatchHost)
	nh, notify := h.(nic.NotifyHost)
	switch {
	case batch && notify:
		return &batchNotifyHostDec{&batchHostDec{base, bh}, notifyDec{nh, tr}}
	case batch:
		return &batchHostDec{base, bh}
	case notify:
		return &notifyHostDec{base, notifyDec{nh, tr}}
	default:
		return base
	}
}

// wrapHosts decorates the per-queue backends of a multi-queue device.
func wrapHosts(hs []nic.BatchHost, tr *tracer) []nic.BatchHost {
	out := make([]nic.BatchHost, len(hs))
	for i, h := range hs {
		out[i] = wrapHost(h, tr).(nic.BatchHost)
	}
	return out
}

func (d *hostDec) popped(n int) {
	d.tr.popPolls.Add(1)
	if n == 0 {
		d.tr.popEmpty.Add(1)
	}
}

func (d *hostDec) Pop(buf []byte) (int, error) {
	n, err := d.h.Pop(buf)
	if err != nil {
		d.popped(0)
		return n, err
	}
	d.popped(1)
	d.tr.frame(seamHostPop, buf[:n])
	return n, nil
}

func (d *hostDec) Push(frame []byte) error {
	err := d.h.Push(frame)
	if err == nil {
		d.tr.frame(seamHostPush, frame)
	}
	return err
}

func (d *hostDec) FrameCap() int { return d.h.FrameCap() }

type batchHostDec struct {
	*hostDec
	bh nic.BatchHost
}

func (d *batchHostDec) PopBatch(bufs [][]byte, lens []int) (int, error) {
	n, err := d.bh.PopBatch(bufs, lens)
	d.popped(n)
	for i := 0; i < n; i++ {
		d.tr.frame(seamHostPop, bufs[i][:lens[i]])
	}
	return n, err
}

func (d *batchHostDec) PushBatch(frames [][]byte) (int, error) {
	n, err := d.bh.PushBatch(frames)
	for _, f := range frames[:n] {
		d.tr.frame(seamHostPush, f)
	}
	return n, err
}

type notifyDec struct {
	nh nic.NotifyHost
	tr *tracer
}

func (d notifyDec) ArmNotify() bool {
	d.tr.arms.Add(1)
	return d.nh.ArmNotify()
}

func (d notifyDec) SuppressNotify()             { d.nh.SuppressNotify() }
func (d notifyDec) NotifyChan() <-chan struct{} { return d.nh.NotifyChan() }

type notifyHostDec struct {
	*hostDec
	notifyDec
}

type batchNotifyHostDec struct {
	*batchHostDec
	notifyDec
}

// --- block devices ---

type diskDec struct {
	d      blockdev.Disk
	tr     *tracer
	lane   uint64
	rd, wr layer
}

// wrapDisk decorates d, recording reads and writes on lane under the
// given layers and keeping its batch view.
func wrapDisk(d blockdev.Disk, tr *tracer, lane uint64, rd, wr layer) blockdev.Disk {
	base := &diskDec{d: d, tr: tr, lane: lane, rd: rd, wr: wr}
	if bd, ok := d.(blockdev.BatchDisk); ok {
		return &batchDiskDec{base, bd}
	}
	return base
}

func (d *diskDec) ReadSector(lba uint64, buf []byte) error {
	start := d.tr.now()
	err := d.d.ReadSector(lba, buf)
	d.tr.end(d.rd, d.lane, start, 1, lba)
	return err
}

func (d *diskDec) WriteSector(lba uint64, data []byte) error {
	start := d.tr.now()
	err := d.d.WriteSector(lba, data)
	d.tr.end(d.wr, d.lane, start, 1, lba)
	return err
}

func (d *diskDec) Sectors() uint64 { return d.d.Sectors() }

type batchDiskDec struct {
	*diskDec
	bd blockdev.BatchDisk
}

func (d *batchDiskDec) ReadSectors(lba uint64, p []byte) error {
	start := d.tr.now()
	err := d.bd.ReadSectors(lba, p)
	d.tr.end(d.rd, d.lane, start, len(p)/blockdev.SectorSize, lba)
	return err
}

func (d *batchDiskDec) WriteSectors(lba uint64, p []byte) error {
	start := d.tr.now()
	err := d.bd.WriteSectors(lba, p)
	d.tr.end(d.wr, d.lane, start, len(p)/blockdev.SectorSize, lba)
	return err
}

// --- byte streams ---

// streamConn is the part of *tcp.Conn the copied glue uses.
type streamConn interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time)
}

// rwDec times the calls into a byte stream on lane under the given
// layers: the tcp.Conn under the glue, or the io.ReadWriter under ctls.
type rwDec struct {
	rw     io.ReadWriter
	tr     *tracer
	lane   uint64
	rd, wr layer
}

func (d *rwDec) Read(p []byte) (int, error) {
	start := d.tr.now()
	n, err := d.rw.Read(p)
	d.tr.end(d.rd, d.lane, start, n, 0)
	return n, err
}

func (d *rwDec) Write(p []byte) (int, error) {
	start := d.tr.now()
	n, err := d.rw.Write(p)
	d.tr.end(d.wr, d.lane, start, n, 0)
	return n, err
}

// tcpDec is a traced *tcp.Conn.
type tcpDec struct {
	rwDec
	c *tcp.Conn
}

func newTCPDec(c *tcp.Conn, tr *tracer, lane uint64) *tcpDec {
	return &tcpDec{rwDec: rwDec{rw: c, tr: tr, lane: lane, rd: lTCPRead, wr: lTCPWrite}, c: c}
}

func (d *tcpDec) Close() error                { return d.c.Close() }
func (d *tcpDec) SetReadDeadline(t time.Time) { d.c.SetReadDeadline(t) }

// ctlsDec is a traced *ctls.Conn: Write is seal plus everything below,
// Read is open plus everything below.
type ctlsDec struct {
	rwDec
	c *ctls.Conn
}

func newCtlsDec(c *ctls.Conn, tr *tracer, lane uint64) *ctlsDec {
	return &ctlsDec{rwDec: rwDec{rw: c, tr: tr, lane: lane, rd: lCtlsRead, wr: lCtlsWrite}, c: c}
}

func (d *ctlsDec) Close() error { return d.c.Close() }
