package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"confio/internal/blkring"
	"confio/internal/blockdev"
	"confio/internal/compartment"
	"confio/internal/cryptdisk"
	"confio/internal/observe"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/sfs"
	"confio/internal/stio"
	"confio/internal/workload"
)

// The files workload: one client on a DualStorage world. Each cycle
// creates a file, writes its records (six of 512 B and two of 16 KiB in a
// seeded order), reads every record back twice in a seeded order,
// verifies each, and deletes the file.

const (
	recordsPerFile = 8
	bigRecords     = 2
	smallRecord    = 512
	bigRecord      = 16 << 10
)

type filesLoop struct {
	ops   fileSystem
	seed  uint64
	cycle uint64
	buf   []byte
}

func newFilesLoop(ops fileSystem, seed uint64) *filesLoop {
	return &filesLoop{ops: ops, seed: seed, buf: make([]byte, bigRecord)}
}

func (l *filesLoop) step(rec *recorder) error {
	c := l.cycle
	l.cycle++
	name := fmt.Sprintf("bench-%d", c)
	sizes := make([]int, recordsPerFile)
	offs := make([]int64, recordsPerFile)
	var total int64
	for k, j := range perm(recordsPerFile, derive(l.seed, streamRecord, c)) {
		sizes[k] = smallRecord
		if j < bigRecords {
			sizes[k] = bigRecord
		}
		offs[k] = total
		total += int64(sizes[k])
	}
	seedOf := func(k int) uint64 { return derive(l.seed, streamRecordData, c*recordsPerFile+uint64(k)) }

	rec.attempted++
	if err := l.ops.Create(name, total); err != nil {
		return rec.fail(fmt.Errorf("create %s: %w", name, err))
	}
	for k, size := range sizes {
		g0 := time.Now()
		p := workload.Payload(seedOf(k), size)
		rec.genVerify += time.Since(g0)
		rec.attempted++
		t0 := time.Now()
		if err := l.ops.Write(name, offs[k], p); err != nil {
			return rec.fail(fmt.Errorf("write %s/%d: %w", name, k, err))
		}
		rec.doneWrite(time.Since(t0))
		rec.bytes += int64(size)
		rec.userSectors += int64((size + blockdev.SectorSize - 1) / blockdev.SectorSize)
	}
	for _, j := range perm(2*recordsPerFile, derive(l.seed, streamRecordOrder, c)) {
		k := j % recordsPerFile
		size := sizes[k]
		rec.attempted++
		t0 := time.Now()
		n, err := l.ops.Read(name, offs[k], l.buf[:size])
		if err != nil {
			return rec.fail(fmt.Errorf("read %s/%d: %w", name, k, err))
		}
		d := time.Since(t0)
		if n != size {
			return rec.fail(fmt.Errorf("read %s/%d: %d of %d bytes", name, k, n, size))
		}
		v0 := time.Now()
		if err := workload.Verify(seedOf(k), l.buf[:n]); err != nil {
			return rec.fail(fmt.Errorf("read %s/%d: %w", name, k, err))
		}
		rec.genVerify += time.Since(v0)
		rec.doneRead(d)
		rec.bytes += int64(size)
	}
	rec.attempted++
	if err := l.ops.Delete(name); err != nil {
		return rec.fail(fmt.Errorf("delete %s: %w", name, err))
	}
	return nil
}

func setupFiles(seed uint64) (*env, error) {
	w, err := stio.NewWorld(stio.DualStorage)
	if err != nil {
		return nil, err
	}
	loop := newFilesLoop(w.Ops(), seed)
	return &env{
		step:   loop.step,
		costs:  w.Costs,
		events: func() uint64 { return eventCount(w.Observability()) },
		fidelity: func() fidelity {
			c := w.Costs()
			return fidelity{c.CryptoBytes, c.GateCrossings, uint64(len(w.Snoop()) / blockdev.SectorSize)}
		},
		check: func() error { return nil },
		close: w.Close,
	}, nil
}

// --- traced assembly: stio.NewWorld(stio.DualStorage) rebuilt from its
// components ---

const volumeSectors = 1024

func setupTracedFiles(seed uint64) (*env, error) {
	tr := newTracer()
	client, backend := tr.newLane(), tr.newLane()
	meter := &platform.Meter{}
	obs := observe.NewMeter()
	snoop := &blockdev.SnoopDisk{Disk: blockdev.NewMemDisk(volumeSectors)}
	obsDisk := &patternDisk{Disk: snoop, obs: obs}
	ep, err := blkring.New(64, obsDisk.Sectors(), meter)
	if err != nil {
		return nil, err
	}
	ep.SetRecoveryPolicy(safering.DefaultRecoveryPolicy())
	be := blkring.NewBackend(ep.Shared(), wrapDisk(obsDisk, tr, backend, lHostRead, lHostWrite))
	be.Start()
	wd := safering.NewWatchdog(safering.DefaultWatchdogConfig(), ep)
	wd.Start()
	closeAll := func() {
		wd.Stop()
		be.Stop()
	}
	id := stio.DualStorage
	cd, _, err := cryptdisk.Format(wrapDisk(ep, tr, client, lRingRead, lRingWrite), volumeSectors, []byte("volume-"+string(id)), meter)
	if err != nil {
		closeAll()
		return nil, err
	}
	top := wrapDisk(cd, tr, client, lCryptRead, lCryptWrite)
	if err := sfs.Mkfs(top, 64); err != nil {
		closeAll()
		return nil, err
	}
	fs, err := sfs.Mount(top)
	if err != nil {
		closeAll()
		return nil, err
	}
	app := compartment.NewDomain("app", meter)
	ioDom := compartment.NewDomain("io", meter)
	gate := compartment.NewGate(app, ioDom, meter)
	sealKey := sha256.Sum256([]byte("record-key-" + string(id)))
	sealed, err := newSealedFS(&fsDec{fs: fs, tr: tr, lane: client, rd: lSFSRead, wr: lSFSWrite, meta: lSFSMeta}, gate, sealKey[:16])
	if err != nil {
		closeAll()
		return nil, err
	}
	loop := newFilesLoop(&fsDec{fs: sealed, tr: tr, lane: client, rd: lFileRead, wr: lFileWrite, meta: lFileMeta}, seed)
	return &env{
		step:   loop.step,
		costs:  meter.Snapshot,
		events: func() uint64 { return eventCount(obs.Report()) },
		fidelity: func() fidelity {
			c := meter.Snapshot()
			return fidelity{c.CryptoBytes, c.GateCrossings, uint64(len(snoop.Seen()) / blockdev.SectorSize)}
		},
		check: func() error { return nil },
		close: closeAll,
		trace: &traceInfo{tr: tr},
	}, nil
}

// fsDec times the calls into a file interface: FileOps above the seal,
// or the filesystem below it.
type fsDec struct {
	fs           fileSystem
	tr           *tracer
	lane         uint64
	rd, wr, meta layer
}

func (d *fsDec) Create(name string, capacity int64) error {
	start := d.tr.now()
	err := d.fs.Create(name, capacity)
	d.tr.end(d.meta, d.lane, start, 0, 0)
	return err
}

func (d *fsDec) Write(name string, off int64, p []byte) error {
	start := d.tr.now()
	err := d.fs.Write(name, off, p)
	d.tr.end(d.wr, d.lane, start, len(p), 0)
	return err
}

func (d *fsDec) Read(name string, off int64, p []byte) (int, error) {
	start := d.tr.now()
	n, err := d.fs.Read(name, off, p)
	d.tr.end(d.rd, d.lane, start, n, 0)
	return n, err
}

func (d *fsDec) Delete(name string) error {
	start := d.tr.now()
	err := d.fs.Delete(name)
	d.tr.end(d.meta, d.lane, start, 0, 0)
	return err
}
