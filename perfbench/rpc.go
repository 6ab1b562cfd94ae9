package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"confio/internal/compartment"
	"confio/internal/core"
	"confio/internal/ctls"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/observe"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/simnet"
	"confio/internal/tcp"
	"confio/internal/workload"
)

// The rpc workload: one connection to a dual-boundary world echoing the
// workload.MixSizes composition (per 16 requests: twelve of 128 B, three
// of 1400 B, one of 16 KiB) in a seeded order.

const rpcCycle = 16

// rpcLoop is the closed-loop client: one request in flight at a time.
type rpcLoop struct {
	conn  io.ReadWriter
	seed  uint64
	cycle uint64
	buf   []byte
}

func newRPCLoop(conn io.ReadWriter, seed uint64) *rpcLoop {
	return &rpcLoop{conn: conn, seed: seed, buf: make([]byte, 16<<10)}
}

func (l *rpcLoop) step(rec *recorder) error {
	sizes := workload.MixSizes(rpcCycle)
	c := l.cycle
	l.cycle++
	for k, j := range perm(rpcCycle, derive(l.seed, streamRPCOrder, c)) {
		i := c*rpcCycle + uint64(k)
		if err := echo(l.conn, derive(l.seed, streamRPC, i), sizes[j], l.buf, rec); err != nil {
			return fmt.Errorf("rpc request %d: %w", i, err)
		}
	}
	return nil
}

// opEcho selects the echo service on a core application connection.
const opEcho = 'E'

func setupRPC(seed uint64) (*env, error) {
	w, err := core.NewWorld(core.DualBoundary)
	if err != nil {
		return nil, err
	}
	conn, err := w.DialApp()
	if err != nil {
		w.Close()
		return nil, err
	}
	if _, err := conn.Write([]byte{opEcho}); err != nil {
		conn.Close()
		w.Close()
		return nil, err
	}
	loop := newRPCLoop(conn, seed)
	return &env{
		step:     loop.step,
		costs:    w.Costs,
		events:   func() uint64 { return eventCount(w.Observability()) },
		fidelity: func() fidelity { return fidelity{cryptoBytes: w.Costs().CryptoBytes} },
		check:    func() error { return nil },
		close: func() {
			conn.Close()
			w.Close()
		},
	}, nil
}

// --- traced assembly: core.NewWorld(core.DualBoundary) rebuilt from its
// components with a decorator at every seam ---

const appPort = 7443

var (
	rpcClientIP = ipv4.Addr{10, 7, 0, 1}
	rpcServerIP = ipv4.Addr{10, 7, 0, 2}
)

type tracedNode struct {
	stack *netstack.Stack
	gate  *compartment.Gate
	app   *compartment.Domain
}

type tracedWorld struct {
	ti      *traceInfo
	net     *simnet.Network
	meter   *platform.Meter
	obs     *observe.Meter
	psk     []byte
	client  *tracedNode
	server  *tracedNode
	closers []func()
}

func (w *tracedWorld) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers = nil
}

func setupTracedRPC(seed uint64) (*env, error) {
	tr := newTracer()
	w := &tracedWorld{
		ti:    &traceInfo{tr: tr},
		net:   simnet.New(),
		meter: &platform.Meter{},
		obs:   observe.NewMeter(),
		psk:   []byte("attested-" + string(core.DualBoundary) + "-psk-0123456789abcdef"),
	}
	w.ti.wire = countFrames(w.net, func(rec simnet.CaptureRecord) {
		w.obs.Observe(observe.ChFrameMeta, rec.Len)
		w.obs.Observe(observe.ChDescriptorMeta, rec.Len)
	})
	var err error
	if w.client, err = w.buildNode(rpcClientIP, 0xC1); err != nil {
		w.close()
		return nil, err
	}
	if w.server, err = w.buildNode(rpcServerIP, 0xC2); err != nil {
		w.close()
		return nil, err
	}
	if err := w.startServer(); err != nil {
		w.close()
		return nil, err
	}
	conn, err := w.dialApp()
	if err != nil {
		w.close()
		return nil, err
	}
	if _, err := conn.Write([]byte{opEcho}); err != nil {
		conn.Close()
		w.close()
		return nil, err
	}
	loop := newRPCLoop(conn, seed)
	return &env{
		step:     loop.step,
		costs:    w.meter.Snapshot,
		events:   func() uint64 { return eventCount(w.obs.Report()) },
		fidelity: func() fidelity { return fidelity{cryptoBytes: w.meter.Snapshot().CryptoBytes} },
		check:    func() error { return nil },
		close: func() {
			conn.Close()
			w.close()
		},
		trace: w.ti,
	}, nil
}

// countFrames installs obs as the network's frame observer, counting the
// frames it switches.
func countFrames(n *simnet.Network, obs func(simnet.CaptureRecord)) *atomic.Uint64 {
	var frames atomic.Uint64
	n.OnFrame(func(rec simnet.CaptureRecord) {
		frames.Add(1)
		obs(rec)
	})
	return &frames
}

// buildNode is core's buildNode for the single-queue dual-boundary design.
func (w *tracedWorld) buildNode(ip ipv4.Addr, macLast byte) (*tracedNode, error) {
	tr := w.ti.tr
	cfg := safering.DefaultConfig()
	cfg.MAC[5] = macLast
	ep, err := safering.New(cfg, w.meter)
	if err != nil {
		return nil, err
	}
	guest := wrapGuest(ep.NIC(), tr, false)
	host := wrapHost(safering.NewHostPort(ep.Shared()).NIC(), tr)
	wd := safering.NewWatchdog(safering.DefaultWatchdogConfig(), ep)
	wd.Start()
	w.closers = append(w.closers, wd.Stop)
	pump := nic.StartPump(host, w.net.NewPort())
	w.closers = append(w.closers, pump.Stop)
	n := &tracedNode{stack: netstack.New(guest, ip)}
	n.stack.Start()
	w.closers = append(w.closers, n.stack.Close)
	w.ti.stacks = append(w.ti.stacks, n.stack)
	n.app = compartment.NewDomain("app", w.meter)
	ioDom := compartment.NewDomain("io", w.meter)
	n.gate = compartment.NewGate(n.app, ioDom, w.meter)
	return n, nil
}

// wrap is core's wrap for the dual-boundary design, with the gate and the
// TCP connection under it traced on lane.
func (w *tracedWorld) wrap(n *tracedNode, c *tcp.Conn, lane uint64) io.ReadWriteCloser {
	gc := newGateConn(newTCPDec(c, w.ti.tr, lane), n.gate, n.app)
	return struct {
		io.ReadWriter
		io.Closer
	}{&rwDec{rw: gc, tr: w.ti.tr, lane: lane, rd: lGateRead, wr: lGateWrite}, gc}
}

func (w *tracedWorld) startServer() error {
	l, err := w.server.stack.Listen(appPort, 16)
	if err != nil {
		return err
	}
	w.closers = append(w.closers, l.Close)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go w.serve(c)
		}
	}()
	return nil
}

// serve is core's serve, echo service only.
func (w *tracedWorld) serve(c *tcp.Conn) {
	lane := w.ti.tr.newLane()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	base := w.wrap(w.server, c, lane)
	raw, err := ctls.Server(base, w.psk, w.meter)
	if err != nil {
		base.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	sec := newCtlsDec(raw, w.ti.tr, lane)
	defer sec.Close()
	var op [1]byte
	if _, err := io.ReadFull(sec, op[:]); err != nil || op[0] != opEcho {
		return
	}
	buf := make([]byte, 64<<10)
	for {
		n, err := sec.Read(buf)
		if err != nil {
			return
		}
		if _, err := sec.Write(buf[:n]); err != nil {
			return
		}
	}
}

// dialApp is core's DialApp.
func (w *tracedWorld) dialApp() (io.ReadWriteCloser, error) {
	c, err := w.client.stack.Dial(rpcServerIP, appPort, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	w.ti.clientLane = w.ti.tr.newLane()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	base := w.wrap(w.client, c, w.ti.clientLane)
	t0 := time.Now()
	sec, err := ctls.Client(base, w.psk, w.meter)
	w.ti.handshakes = append(w.ti.handshakes, time.Since(t0))
	if err != nil {
		base.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	c.SetReadDeadline(time.Time{})
	return newCtlsDec(sec, w.ti.tr, w.ti.clientLane), nil
}
