package virtio

import (
	"sync/atomic"

	"confio/internal/shmem"
)

// Split-virtqueue wire format, as in the virtio 1.x specification:
//
//	struct virtq_desc  { le64 addr; le32 len; le16 flags; le16 next; }
//	struct virtq_avail { le16 flags; le16 idx; le16 ring[N]; }
//	struct virtq_used  { le16 flags; le16 idx; struct { le32 id; le32 len; } ring[N]; }
//
// Every structure lives in device-visible shared memory, so either side
// can rewrite any field at any time — the property that makes hardening
// the consumer so delicate.

// Descriptor flag bits.
const (
	DescFNext     uint16 = 1
	DescFWrite    uint16 = 2
	DescFIndirect uint16 = 4
)

const descBytes = 16

// Queue is one split virtqueue plus the buffer memory its descriptors
// point into. Idx fields are modelled as atomics (same publish/observe
// semantics as shared cache lines); everything else is raw shared bytes.
type Queue struct {
	size uint64

	desc  *shmem.Region // size * 16
	avail *shmem.Region // 2-byte entries
	used  *shmem.Region // 8-byte entries
	bufs  *shmem.Region // size * bufSize

	bufSize uint64

	//ciovet:shared driver-published avail index, device reads it concurrently
	availIdx atomic.Uint64
	//ciovet:shared device-published used index, driver reads it concurrently
	usedIdx atomic.Uint64

	// availMoved and usedMoved model monitors armed on the two index
	// cache lines: every store of the index leaves one coalescing token,
	// which an idle consumer waits on instead of a clock. Hints only —
	// every poll still goes through the (hardened or legacy) index path.
	availMoved chan struct{}
	usedMoved  chan struct{}
}

// trip leaves a token on a monitor without blocking.
func trip(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// NewQueue allocates a virtqueue of the given size with per-slot buffers.
func NewQueue(size, bufSize int) (*Queue, error) {
	q := &Queue{
		size: uint64(size), bufSize: uint64(bufSize),
		availMoved: make(chan struct{}, 1), usedMoved: make(chan struct{}, 1),
	}
	var err error
	if q.desc, err = shmem.NewRegion(size * descBytes); err != nil {
		return nil, err
	}
	// avail ring entries are 2 bytes; used entries 8 bytes.
	if q.avail, err = shmem.NewRegion(maxInt(size*2, shmem.MinRegionSize)); err != nil {
		return nil, err
	}
	if q.used, err = shmem.NewRegion(size * 8); err != nil {
		return nil, err
	}
	if q.bufs, err = shmem.NewRegion(size * bufSize); err != nil {
		return nil, err
	}
	return q, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Size returns the queue size.
func (q *Queue) Size() int { return int(q.size) }

// BufSize returns the per-slot buffer size.
func (q *Queue) BufSize() int { return int(q.bufSize) }

// Bufs exposes the buffer memory (device-writable).
func (q *Queue) Bufs() *shmem.Region { return q.bufs }

// BufAddr returns the buffer region offset for slot i (the value the
// driver puts in desc.addr).
func (q *Queue) BufAddr(i int) uint64 { return uint64(i) * q.bufSize }

// Desc accessors. The raw regions are exported so the attack harness can
// forge arbitrary state, exactly like a malicious hypervisor.

// DescRegion exposes the descriptor table memory.
func (q *Queue) DescRegion() *shmem.Region { return q.desc }

// ReadDesc loads descriptor i (masked).
func (q *Queue) ReadDesc(i uint64) (addr uint64, length uint32, flags, next uint16) {
	off := (i & (q.size - 1)) * descBytes
	return q.desc.U64(off), q.desc.U32(off + 8), q.desc.U16(off + 12), q.desc.U16(off + 14)
}

// WriteDesc stores descriptor i (masked).
func (q *Queue) WriteDesc(i uint64, addr uint64, length uint32, flags, next uint16) {
	off := (i & (q.size - 1)) * descBytes
	q.desc.SetU64(off, addr)
	q.desc.SetU32(off+8, length)
	q.desc.SetU16(off+12, flags)
	q.desc.SetU16(off+14, next)
}

// AvailIdx returns the driver-published available index.
func (q *Queue) AvailIdx() uint64 { return q.availIdx.Load() }

// PublishAvail appends slot id at position idx and publishes idx+1.
func (q *Queue) PublishAvail(idx uint64, id uint16) {
	q.avail.SetU16((idx&(q.size-1))*2, id)
	q.availIdx.Store(idx + 1)
	trip(q.availMoved)
}

// AvailEntry reads the avail ring entry at position idx (masked).
func (q *Queue) AvailEntry(idx uint64) uint16 {
	return q.avail.U16((idx & (q.size - 1)) * 2)
}

// UsedIdx returns the device-published used index.
func (q *Queue) UsedIdx() uint64 { return q.usedIdx.Load() }

// PublishUsed appends a used element {id, len} at position idx and
// publishes idx+1.
func (q *Queue) PublishUsed(idx uint64, id, length uint32) {
	off := (idx & (q.size - 1)) * 8
	q.used.SetU32(off, id)
	q.used.SetU32(off+4, length)
	q.usedIdx.Store(idx + 1)
	trip(q.usedMoved)
}

// UsedEntry reads the used element at position idx (masked).
func (q *Queue) UsedEntry(idx uint64) (id, length uint32) {
	off := (idx & (q.size - 1)) * 8
	return q.used.U32(off), q.used.U32(off + 4)
}

// ForgeUsedIdx lets a malicious device publish an arbitrary used index
// without writing entries.
func (q *Queue) ForgeUsedIdx(v uint64) {
	q.usedIdx.Store(v)
	trip(q.usedMoved)
}

// ForgeAvailIdx lets a malicious driver-side entity publish an arbitrary
// avail index.
func (q *Queue) ForgeAvailIdx(v uint64) {
	q.availIdx.Store(v)
	trip(q.availMoved)
}
