package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"confio/internal/gateway"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/simnet"
)

// The gateway workload: two tenant flows through the default gateway
// node. Tenant 2 sends closed-loop 256 B echoes and is measured; tenant 1
// sends 4 KiB echoes back to back on a second goroutine (the flood).

const (
	measuredTenant gateway.TenantID = 2
	floodTenant    gateway.TenantID = 1
	measuredSize                    = 256
	floodSize                       = 4 << 10
	gwCycle                         = 16
)

// gwLoop drives both tenants. The flood starts with the first step and
// runs until stop.
type gwLoop struct {
	measured, flood io.ReadWriter
	seed            uint64
	next            uint64
	buf             []byte

	once       sync.Once
	quit       atomic.Bool
	wg         sync.WaitGroup
	floodBytes atomic.Int64
	floodErr   atomic.Pointer[error]
}

func (l *gwLoop) step(rec *recorder) error {
	l.once.Do(func() {
		l.wg.Add(1)
		go l.runFlood()
	})
	for k := 0; k < gwCycle; k++ {
		i := l.next
		l.next++
		if err := echo(l.measured, derive(l.seed, streamMeasured, i), measuredSize, l.buf, rec); err != nil {
			return fmt.Errorf("tenant %v request %d: %w", measuredTenant, i, err)
		}
	}
	if p := l.floodErr.Load(); p != nil {
		return rec.fail(*p)
	}
	return nil
}

func (l *gwLoop) runFlood() {
	defer l.wg.Done()
	buf := make([]byte, floodSize)
	var rec recorder
	for i := uint64(0); !l.quit.Load(); i++ {
		if err := echo(l.flood, derive(l.seed, streamFlood, i), floodSize, buf, &rec); err != nil {
			err = fmt.Errorf("tenant %v request %d: %w", floodTenant, i, err)
			l.floodErr.Store(&err)
			return
		}
		l.floodBytes.Add(2 * floodSize)
	}
}

// stop ends the flood after its request in flight and waits for it.
func (l *gwLoop) stop() {
	l.quit.Store(true)
	l.wg.Wait()
}

// tenantCheck verifies the measured tenant lost nothing and the device
// stayed alive.
func tenantCheck(tb *platform.TenantBank, dead func() error) error {
	c := tb.Tenant(uint64(measuredTenant))
	if c.Drops != 0 || c.Evictions != 0 {
		return fmt.Errorf("tenant %v: %d drops, %d evictions", measuredTenant, c.Drops, c.Evictions)
	}
	if err := dead(); err != nil {
		return fmt.Errorf("gateway transport died: %w", err)
	}
	return nil
}

// gwCosts is the device bank plus the measured tenant's own meter: the
// flood's ring work is shared device work, its crypto is not.
func gwCosts(bank *platform.MeterBank, tb *platform.TenantBank) platform.Costs {
	return bank.Snapshot().Add(tb.Tenant(uint64(measuredTenant)))
}

func setupGateway(seed uint64) (*env, error) {
	n, err := gateway.NewNode(gateway.DefaultNodeConfig())
	if err != nil {
		return nil, err
	}
	m, err := n.DialTenant(measuredTenant)
	if err != nil {
		n.Close()
		return nil, err
	}
	f, err := n.DialTenant(floodTenant)
	if err != nil {
		m.Close()
		n.Close()
		return nil, err
	}
	l := &gwLoop{measured: m, flood: f, seed: seed, buf: make([]byte, measuredSize)}
	return &env{
		step:  l.step,
		costs: func() platform.Costs { return gwCosts(n.Bank, n.Tb) },
		fidelity: func() fidelity {
			return fidelity{cryptoBytes: n.Tb.Tenant(uint64(measuredTenant)).CryptoBytes}
		},
		flood: l.floodBytes.Load,
		check: func() error { return tenantCheck(n.Tb, n.GatewayTransport().Dead) },
		close: func() {
			l.stop()
			m.Close()
			f.Close()
			n.Close()
		},
	}, nil
}

// --- traced assembly: gateway.NewNode(gateway.DefaultNodeConfig())
// rebuilt from its components ---

var (
	gwIP       = ipv4.Addr{10, 9, 0, 1}
	gwClientIP = ipv4.Addr{10, 9, 0, 2}
)

func setupTracedGateway(seed uint64) (*env, error) {
	tr := newTracer()
	ti := &traceInfo{tr: tr, clientOnly: true, watchTenant: uint64(measuredTenant), notes: []string{
		"compartment.gate_us reads 0: the gateway's gate is inside package gateway, with no seam to decorate",
		"ctls.seal_us and ctls.open_us cover the measured tenant's client end only, for the same reason",
		"observe.events_op reads 0: the gateway node has no observability meter",
	}}
	cfg := gateway.DefaultNodeConfig()
	cfg.Gateway.Bank = platform.NewTenantBank()
	cfg.Gateway.Handler = func(id gateway.TenantID, msg []byte) ([]byte, error) {
		start := tr.now()
		resp, err := gateway.EchoHandler(id, msg)
		tr.end(lHandler, 0, start, len(msg), uint64(id))
		return resp, err
	}
	net := simnet.New()
	ti.wire = countFrames(net, func(simnet.CaptureRecord) {})
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}

	// Gateway side, as in gateway.NewNode.
	rcfg := safering.DefaultConfig()
	rcfg.MAC[5] = 0xA1
	rcfg.Notify = true
	rcfg.EventIdx = true
	bank := platform.NewMeterBank(cfg.Queues)
	mep, err := safering.NewMulti(rcfg, cfg.Queues, bank)
	if err != nil {
		return nil, err
	}
	mhp := safering.NewMultiHostPort(mep.SharedQueues())
	mpump := nic.StartMultiPump(wrapHosts(mhp.HostNICs(), tr), net.NewPort())
	closers = append(closers, mpump.Stop)
	wd := safering.WatchDevice(safering.DefaultWatchdogConfig(), mep)
	wd.Start()
	closers = append(closers, wd.Stop)
	gwStack := netstack.New(wrapGuest(mep.NIC(), tr, true), gwIP)
	gwStack.Start()
	closers = append(closers, gwStack.Close)

	// Client side.
	ccfg := safering.DefaultConfig()
	ccfg.MAC[5] = 0xC2
	cep, err := safering.New(ccfg, nil)
	if err != nil {
		closeAll()
		return nil, err
	}
	cpump := nic.StartPump(wrapHost(safering.NewHostPort(cep.Shared()).NIC(), tr), net.NewPort())
	closers = append(closers, cpump.Stop)
	clientStack := netstack.New(wrapGuest(cep.NIC(), tr, false), gwClientIP)
	clientStack.Start()
	closers = append(closers, clientStack.Close)
	ti.stacks = []*netstack.Stack{gwStack, clientStack}

	gw, err := gateway.New(cfg.Gateway)
	if err != nil {
		closeAll()
		return nil, err
	}
	l, err := gwStack.Listen(gateway.Port, 64)
	if err != nil {
		closeAll()
		return nil, err
	}
	go gw.Serve(l)
	closers = append(closers, gw.Close)
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(cfg.Gateway.StallTimeout / 4)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				gw.PollStalls()
			}
		}
	}()
	closers = append(closers, func() { close(stop) })

	dial := func(id gateway.TenantID) (*ctlsDec, error) {
		lane := tr.newLane()
		tc, err := dialTenant(clientStack, gwIP, id, gateway.TenantKey(cfg.Gateway.Master, id), tr, lane)
		if err != nil {
			return nil, err
		}
		closers = append(closers, tc.close)
		ti.handshakes = append(ti.handshakes, tc.handshake)
		if id == measuredTenant {
			ti.clientLane, ti.watchPort = lane, tc.port
		}
		return tc.sec, nil
	}
	m, err := dial(measuredTenant)
	if err != nil {
		closeAll()
		return nil, err
	}
	f, err := dial(floodTenant)
	if err != nil {
		closeAll()
		return nil, err
	}
	gl := &gwLoop{measured: m, flood: f, seed: seed, buf: make([]byte, measuredSize)}
	tb := cfg.Gateway.Bank
	return &env{
		step:  gl.step,
		costs: func() platform.Costs { return gwCosts(bank, tb) },
		fidelity: func() fidelity {
			return fidelity{cryptoBytes: tb.Tenant(uint64(measuredTenant)).CryptoBytes}
		},
		flood: gl.floodBytes.Load,
		check: func() error { return tenantCheck(tb, mep.Dead) },
		close: func() {
			gl.stop()
			closeAll()
		},
		trace: ti,
	}, nil
}
