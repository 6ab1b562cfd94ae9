package main

import (
	"sort"
	"sync/atomic"
	"time"

	"confio/internal/gateway"
	"confio/internal/netstack"
	"confio/internal/platform"
)

// traceInfo is what a traced assembly exposes beyond its env.
type traceInfo struct {
	tr         *tracer
	stacks     []*netstack.Stack
	wire       *atomic.Uint64 // frames switched by the network
	handshakes []time.Duration
	// clientLane is the measured client's connection. With clientOnly,
	// connection layers count on that lane only (the gateway, whose other
	// client is the flood).
	clientLane uint64
	clientOnly bool
	// watchTenant and watchPort select the measured gateway flow.
	watchTenant uint64
	watchPort   uint16
	// notes explain per-layer metrics that read 0 by construction.
	notes []string

	c0, c1     counters
	net0, net1 netCounts
}

// netCounts sums the stack and TCP counters of every traced stack.
type netCounts struct {
	segsOut, retransmits, sendDrops, wire uint64
}

func (ti *traceInfo) netCounts() netCounts {
	var n netCounts
	for _, s := range ti.stacks {
		ts := s.TCP.Stats()
		n.segsOut += ts.SegsOut
		n.retransmits += ts.Retransmits
		n.sendDrops += s.Stats().SendDrops
	}
	if ti.wire != nil {
		n.wire = ti.wire.Load()
	}
	return n
}

// begin and finish bracket the measured window.
func (ti *traceInfo) begin() int64 {
	ti.c0, ti.net0 = ti.tr.counters(), ti.netCounts()
	return ti.tr.now()
}

func (ti *traceInfo) finish() int64 {
	at := ti.tr.now()
	ti.c1, ti.net1 = ti.tr.counters(), ti.netCounts()
	return at
}

// matchHorizon bounds a frame's wait between two seams; a copy pending
// longer was lost. It is below TCP's initial RTO, so a retransmit never
// matches the copy it replaces.
const matchHorizon = int64(25 * time.Millisecond)

// layerStat aggregates the spans of one layer inside the window.
type layerStat struct {
	count int
	self  int64
	dur   int64
	n     int
}

// layerMetrics computes the per-layer split of a traced phase. Times are
// per measured request unless the name says otherwise; a layer the
// workload does not reach reads 0.
func layerMetrics(ti *traceInfo, p phase, tracedIQM, untracedIQM float64) []metric {
	spans, frames, ports := ti.tr.snapshot()
	var in []span
	for _, s := range spans {
		if s.start >= p.win[0] && s.end <= p.win[1] {
			in = append(in, s)
		}
	}
	self := selfTimes(in)
	var st [numLayers]layerStat
	for i, s := range in {
		switch s.layer {
		case lTCPRead:
			// Time blocked in Read counts on the measured client only: a
			// server blocks in Read between requests, which is idle time.
			if s.lane != ti.clientLane {
				continue
			}
		case lCtlsWrite, lCtlsRead, lGateWrite, lGateRead, lTCPWrite:
			if ti.clientOnly && s.lane != ti.clientLane {
				continue // the gateway's flooding tenant
			}
		case lHandler:
			if s.tag != ti.watchTenant {
				continue
			}
		}
		a := &st[s.layer]
		a.count++
		a.self += self[i]
		a.dur += s.end - s.start
		a.n += s.n
	}

	var fr []frameEvent
	for _, f := range frames {
		if f.at >= p.win[0]-matchHorizon && f.at <= p.win[1] {
			fr = append(fr, f)
		}
	}
	wait := func(from, to seam) (float64, int) {
		w, _ := matchWaits(fr, from, to, matchHorizon)
		return mean(w) / 1e3, len(w)
	}

	reqs := len(p.rec.all)
	nreq := float64(reqs)
	perReq := func(ns int64) float64 { return ratio(float64(ns)/1e3, nreq) }
	c := ti.c1.sub(ti.c0)
	nc := netCounts{
		ti.net1.segsOut - ti.net0.segsOut, ti.net1.retransmits - ti.net0.retransmits,
		ti.net1.sendDrops - ti.net0.sendDrops, ti.net1.wire - ti.net0.wire,
	}
	send := st[lNICSend]
	rxWait, rxN := wait(seamHostPush, seamGuestRecv)
	txWait, txN := wait(seamGuestSend, seamHostPop)
	transit, trN := wait(seamHostPop, seamHostPush)
	inUs, outUs, gwN := gatewayHops(in, ports, ti)
	submit, ringWait, ringN := ringSplit(in)
	ringCalls, ringSectors := st[lRingRead].count+st[lRingWrite].count, st[lRingRead].n+st[lRingWrite].n
	hs := make([]int64, len(ti.handshakes))
	for i, d := range ti.handshakes {
		hs[i] = int64(d)
	}
	handler := st[lHandler]

	ms := []metric{
		{"safering.send_us", ratio(float64(send.dur)/1e3, float64(send.count)), "us", send.count},
		{"safering.frames_per_send", ratio(float64(send.n), float64(send.count)), "count", send.count},
		{"safering.recv_empty_ratio", ratio(float64(c.recvEmpty), float64(c.recvPolls)), "ratio", int(c.recvPolls)},
		{"safering.rx_wait_us", rxWait, "us", rxN},
		{"nic.tx_wait_us", txWait, "us", txN},
		{"nic.pop_empty_ratio", ratio(float64(c.popEmpty), float64(c.popPolls)), "ratio", int(c.popPolls)},
		{"nic.arms_op", ratio(float64(c.arms), nreq), "count", reqs},
		{"simnet.transit_us", transit, "us", trN},
		{"simnet.frames_op", ratio(float64(nc.wire), nreq), "count", reqs},
		{"tcp.write_us", perReq(st[lTCPWrite].self), "us", st[lTCPWrite].count},
		{"tcp.read_wait_us", perReq(st[lTCPRead].self), "us", st[lTCPRead].count},
		{"tcp.segs_op", ratio(float64(nc.segsOut), nreq), "count", reqs},
		{"tcp.retransmits_op", ratio(float64(nc.retransmits), nreq), "count", reqs},
		{"netstack.send_drops_op", ratio(float64(nc.sendDrops), nreq), "count", reqs},
		{"compartment.gate_us", perReq(st[lGateWrite].self + st[lGateRead].self), "us", st[lGateWrite].count + st[lGateRead].count},
		{"ctls.seal_us", perReq(st[lCtlsWrite].self), "us", st[lCtlsWrite].count},
		{"ctls.open_us", perReq(st[lCtlsRead].self), "us", st[lCtlsRead].count},
		{"ctls.handshake_ms", mean(hs) / 1e6, "ms", len(hs)},
		{"workload.gen_verify_us", perReq(int64(p.rec.genVerify)), "us", reqs},
		{"gateway.in_us", inUs, "us", gwN},
		{"gateway.handler_us", ratio(float64(handler.dur)/1e3, float64(handler.count)), "us", handler.count},
		{"gateway.out_us", outUs, "us", gwN},
		{"stio.seal_us", perReq(st[lFileWrite].self + st[lFileRead].self), "us", st[lFileWrite].count + st[lFileRead].count},
		{"sfs.write_us", ratio(float64(st[lSFSWrite].self)/1e3, float64(p.rec.writes)), "us", p.rec.writes},
		{"sfs.read_us", ratio(float64(st[lSFSRead].self)/1e3, float64(p.rec.reads)), "us", p.rec.reads},
		{"cryptdisk.write_us_sector", ratio(float64(st[lCryptWrite].self)/1e3, float64(st[lCryptWrite].n)), "us", st[lCryptWrite].n},
		{"cryptdisk.read_us_sector", ratio(float64(st[lCryptRead].self)/1e3, float64(st[lCryptRead].n)), "us", st[lCryptRead].n},
		{"blkring.submit_us", submit, "us", ringN},
		{"blkring.wait_us", ringWait, "us", ringN},
		{"blkring.sectors_per_submit", ratio(float64(ringSectors), float64(ringCalls)), "count", ringCalls},
		{"blockdev.write_amp", ratio(float64(st[lHostWrite].n), float64(p.rec.userSectors)), "ratio", st[lHostWrite].n},
		{"blockdev.reads_op", ratio(float64(st[lHostRead].n), nreq), "count", reqs},
	}
	ms = append(ms, meterMetrics(p.costs, p.events, reqs)...)
	return append(ms, metric{"trace.overhead_ratio", ratio(tracedIQM, untracedIQM), "ratio", reqs})
}

// meterMetrics turns the meter counters of a window into per-request
// counts; they are read in traced and untraced runs alike.
func meterMetrics(c platform.Costs, events uint64, reqs int) []metric {
	n := float64(reqs)
	per := func(name string, v uint64, unit string) metric {
		return metric{name, ratio(float64(v), n), unit, reqs}
	}
	return []metric{
		per("meter.tee_crossings_op", c.TEECrossings, "count"),
		per("meter.gate_crossings_op", c.GateCrossings, "count"),
		per("meter.bytes_copied_op", c.BytesCopied, "B"),
		per("meter.crypto_bytes_op", c.CryptoBytes, "B"),
		per("meter.checks_op", c.Checks, "count"),
		per("meter.notifications_op", c.Notifications, "count"),
		per("meter.notifs_suppressed_op", c.NotifsSuppressed, "count"),
		per("meter.index_publishes_op", c.IndexPublishes, "count"),
		per("meter.frames_op", c.Frames, "count"),
		{"meter.model_ns_op", ratio(c.ModelNanos(platform.DefaultCostParams()), n), "ns", reqs},
		per("observe.events_op", events, "count"),
	}
}

// gatewayHops ties each handler call of the measured tenant to the flow's
// frames on the gateway's ring: in is from the last request frame the
// gateway's stack took off the ring to the handler call, out from the
// handler's return to the first reply frame put on the ring.
func gatewayHops(in []span, ports []portEvent, ti *traceInfo) (inUs, outUs float64, n int) {
	if ti.watchPort == 0 {
		return 0, 0, 0
	}
	var reqAt, repAt []int64
	for _, e := range ports {
		switch {
		case !e.send && e.src == ti.watchPort && e.dst == gateway.Port:
			reqAt = append(reqAt, e.at)
		case e.send && e.src == gateway.Port && e.dst == ti.watchPort:
			repAt = append(repAt, e.at)
		}
	}
	sort.Slice(reqAt, func(a, b int) bool { return reqAt[a] < reqAt[b] })
	sort.Slice(repAt, func(a, b int) bool { return repAt[a] < repAt[b] })
	var ins, outs []int64
	for _, s := range in {
		if s.layer != lHandler || s.tag != ti.watchTenant {
			continue
		}
		i := sort.Search(len(reqAt), func(k int) bool { return reqAt[k] > s.start })
		j := sort.Search(len(repAt), func(k int) bool { return repAt[k] >= s.end })
		if i == 0 || j == len(repAt) {
			continue
		}
		ins = append(ins, s.start-reqAt[i-1])
		outs = append(outs, repAt[j]-s.end)
	}
	return mean(ins) / 1e3, mean(outs) / 1e3, len(ins)
}

// ringSplit splits each call into the block ring into the wait until the
// backend's first disk call for one of its sectors (the backend's idle
// ladder), the backend's disk time, and the rest (submit: staging,
// publishing and reaping), and returns the mean submit and wait per call.
func ringSplit(in []span) (submitUs, waitUs float64, n int) {
	var host []span
	for _, s := range in {
		if s.layer == lHostRead || s.layer == lHostWrite {
			host = append(host, s)
		}
	}
	sort.Slice(host, func(a, b int) bool { return host[a].start < host[b].start })
	var submits, waits []int64
	for _, r := range in {
		if r.layer != lRingRead && r.layer != lRingWrite {
			continue
		}
		first, busy := int64(-1), int64(0)
		curS, curE := int64(0), int64(0)
		for k := sort.Search(len(host), func(k int) bool { return host[k].start >= r.start }); k < len(host) && host[k].start <= r.end; k++ {
			h := host[k]
			if h.tag < r.tag || h.tag >= r.tag+uint64(r.n) {
				continue
			}
			if first < 0 {
				first, curS, curE = h.start, h.start, h.end
				continue
			}
			if h.start > curE {
				busy += curE - curS
				curS, curE = h.start, h.end
			} else if h.end > curE {
				curE = h.end
			}
		}
		if first < 0 {
			continue
		}
		busy += curE - curS
		w := first - r.start
		waits = append(waits, w)
		submits = append(submits, max(r.end-r.start-w-busy, 0))
	}
	return mean(submits) / 1e3, mean(waits) / 1e3, len(waits)
}
