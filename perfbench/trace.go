package main

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A tracer keeps every span and frame event of one traced run in memory;
// the analysis runs after the run ends. All timestamps are nanoseconds
// since the tracer's epoch on the monotonic clock.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	frames []frameEvent
	ports  []portEvent
	lost   int // events dropped because the buffers were full

	// Poll counters, kept apart from spans because the idle loops poll
	// tens of thousands of times per second.
	recvPolls, recvEmpty atomic.Uint64
	popPolls, popEmpty   atomic.Uint64
	arms                 atomic.Uint64

	lanes atomic.Uint64
}

// maxEvents bounds each event buffer so a long traced run cannot exhaust
// memory; events beyond it are counted as lost and reported.
const maxEvents = 4 << 20

// span is one call into a layer, timed from outside around the call.
type span struct {
	layer layer
	lane  uint64 // the call chain the span belongs to; 0 for none
	start int64
	end   int64
	n     int    // layer-specific size: sectors, frames or bytes
	tag   uint64 // layer-specific key: LBA or tenant id
}

// A lane is one chain of nested calls that a single goroutine at a time
// makes: the client or server end of one connection through ctls, the
// gate and TCP, or the storage stack's client or block backend. Every
// decorator on a chain carries the chain's lane, so a span's children are
// the spans of its lane inside its interval. Spans on lane 0 (ring sends,
// handler calls) come from many goroutines and have no children.
func (t *tracer) newLane() uint64 { return t.lanes.Add(1) }

// layer names a traced call site.
type layer uint8

const (
	lCtlsWrite layer = iota
	lCtlsRead
	lGateWrite
	lGateRead
	lTCPWrite
	lTCPRead
	lNICSend
	lHandler
	lFileWrite
	lFileRead
	lFileMeta // FileOps Create and Delete
	lSFSWrite
	lSFSRead
	lSFSMeta
	lCryptWrite
	lCryptRead
	lRingWrite
	lRingRead
	lHostWrite
	lHostRead
	numLayers
)

// seam names one side of a frame hand-off between two layers.
type seam uint8

const (
	seamGuestSend seam = iota // guest stack hands a frame to its ring
	seamHostPop               // host pump takes the frame off the ring
	seamHostPush              // peer host pump puts the frame on its ring
	seamGuestRecv             // peer guest stack takes the frame off its ring
)

type frameEvent struct {
	at   int64
	seam seam
	hash uint64
}

// portEvent records a frame carrying TCP payload on a watched guest ring,
// so gateway spans can be tied to the frames of one flow.
type portEvent struct {
	at       int64
	send     bool // guest send (reply leaves) or guest receive (request arrives)
	src, dst uint16
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// end records a span that started at start (from now) and ends now.
func (t *tracer) end(l layer, lane uint64, start int64, n int, tag uint64) {
	t.endAt(l, lane, start, t.now(), n, tag)
}

// endAt records a span with an end time the caller took.
func (t *tracer) endAt(l layer, lane uint64, start, end int64, n int, tag uint64) {
	s := span{layer: l, lane: lane, start: start, end: end, n: n, tag: tag}
	t.mu.Lock()
	if len(t.spans) < maxEvents {
		t.spans = append(t.spans, s)
	} else {
		t.lost++
	}
	t.mu.Unlock()
}

// frame records that a frame crossed seam s now.
func (t *tracer) frame(s seam, b []byte) { t.frameAt(s, b, t.now()) }

// frameAt records that a frame crossed seam s at time at.
func (t *tracer) frameAt(s seam, b []byte, at int64) {
	e := frameEvent{at: at, seam: s, hash: frameHash(b)}
	t.mu.Lock()
	if len(t.frames) < maxEvents {
		t.frames = append(t.frames, e)
	} else {
		t.lost++
	}
	t.mu.Unlock()
}

// port records a TCP data frame seen on a watched guest ring.
func (t *tracer) port(send bool, b []byte) {
	src, dst, payload, ok := tcpPorts(b)
	if !ok || payload == 0 {
		return
	}
	e := portEvent{at: t.now(), send: send, src: src, dst: dst}
	t.mu.Lock()
	if len(t.ports) < maxEvents {
		t.ports = append(t.ports, e)
	} else {
		t.lost++
	}
	t.mu.Unlock()
}

// snapshot copies the recorded events out from under the lock.
func (t *tracer) snapshot() ([]span, []frameEvent, []portEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]frameEvent(nil), t.frames...),
		append([]portEvent(nil), t.ports...)
}

// lostEvents reports how many events did not fit the buffers.
func (t *tracer) lostEvents() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lost
}

// hashPrefix is how much of a frame frameHash reads: the Ethernet, IP and
// TCP headers, whose TCP checksum already covers the payload.
const hashPrefix = 64

// frameHash identifies a frame's content across seams.
func frameHash(b []byte) uint64 {
	h := fnv.New64a()
	var n [4]byte
	n[0], n[1] = byte(len(b)>>8), byte(len(b))
	h.Write(n[:])
	h.Write(b[:min(len(b), hashPrefix)])
	return h.Sum64()
}

// counters is a snapshot of the tracer's poll counters.
type counters struct {
	recvPolls, recvEmpty, popPolls, popEmpty, arms uint64
}

func (t *tracer) counters() counters {
	return counters{
		recvPolls: t.recvPolls.Load(), recvEmpty: t.recvEmpty.Load(),
		popPolls: t.popPolls.Load(), popEmpty: t.popEmpty.Load(), arms: t.arms.Load(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{c.recvPolls - o.recvPolls, c.recvEmpty - o.recvEmpty,
		c.popPolls - o.popPolls, c.popEmpty - o.popEmpty, c.arms - o.arms}
}

// tcpPorts parses an Ethernet/IPv4/TCP frame and returns its ports and
// TCP payload length; ok is false for anything else.
func tcpPorts(f []byte) (src, dst uint16, payload int, ok bool) {
	const ethLen = 14
	if len(f) < ethLen+20 || f[12] != 0x08 || f[13] != 0x00 {
		return 0, 0, 0, false
	}
	ip := f[ethLen:]
	ihl := int(ip[0]&0x0f) * 4
	total := int(ip[2])<<8 | int(ip[3])
	if ip[9] != 6 || ihl < 20 || total > len(ip) || total < ihl+20 {
		return 0, 0, 0, false
	}
	seg := ip[ihl:total]
	doff := int(seg[12]>>4) * 4
	if doff < 20 || doff > len(seg) {
		return 0, 0, 0, false
	}
	return uint16(seg[0])<<8 | uint16(seg[1]), uint16(seg[2])<<8 | uint16(seg[3]), len(seg) - doff, true
}

// selfTimes returns, index-aligned with spans, each span's duration minus
// the part of it covered by other spans of the same lane that lie inside
// it (its children, however deep). Overlapping children are merged, so no
// instant is subtracted twice. Spans on lane 0 keep their whole duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	byLane := make(map[uint64][]int)
	for i, s := range spans {
		if s.lane == 0 {
			self[i] = s.end - s.start
			continue
		}
		byLane[s.lane] = append(byLane[s.lane], i)
	}
	for _, idx := range byLane {
		// Parents before their children: by start, then longest first.
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.start != sb.start {
				return sa.start < sb.start
			}
			return sa.end > sb.end
		})
		for k, i := range idx {
			p := spans[i]
			// Children arrive sorted by start; merge them into runs.
			covered := int64(0)
			curS, curE := p.start, p.start
			for _, j := range idx[k+1:] {
				c := spans[j]
				if c.start >= p.end {
					break
				}
				if c.end > p.end {
					continue // overlaps the parent's end: not inside it
				}
				if c.start > curE {
					covered += curE - curS
					curS, curE = c.start, c.end
				} else if c.end > curE {
					curE = c.end
				}
			}
			covered += curE - curS
			self[i] = p.end - p.start - covered
		}
	}
	return self
}

// matchWaits pairs every event at seam `to` with the oldest pending event
// at seam `from` that carries the same frame hash, and returns the waits
// between them. Identical frames (retransmits, repeated payloads, pure
// ACKs) queue in order, so each copy matches its own earlier crossing. A
// pending event older than horizon is discarded: its frame was lost
// between the seams, and a later retransmit must not match it.
func matchWaits(events []frameEvent, from, to seam, horizon int64) (waits []int64, unmatched int) {
	evs := append([]frameEvent(nil), events...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	pending := make(map[uint64][]int64)
	for _, e := range evs {
		switch e.seam {
		case from:
			pending[e.hash] = append(pending[e.hash], e.at)
		case to:
			q := pending[e.hash]
			for len(q) > 0 && e.at-q[0] > horizon {
				q = q[1:]
			}
			if len(q) == 0 {
				unmatched++
				delete(pending, e.hash)
				continue
			}
			waits = append(waits, e.at-q[0])
			if q = q[1:]; len(q) == 0 {
				delete(pending, e.hash)
			} else {
				pending[e.hash] = q
			}
		}
	}
	return waits, unmatched
}
