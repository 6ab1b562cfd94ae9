package main

// This file copies the unexported glue the traced assembly needs from
// internal/core, internal/stio and internal/gateway. Each copy keeps the
// original's logic; the only change is that the layer below is an
// interface, so a timing decorator can stand in for it.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"confio/internal/blockdev"
	"confio/internal/compartment"
	"confio/internal/ctls"
	"confio/internal/gateway"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/observe"
)

// gateConn is core's gateConn (the DualBoundary design's L5 boundary),
// without the compromise hook the benchmark never sets.
type gateConn struct {
	c     streamConn
	gate  *compartment.Gate
	app   *compartment.Domain
	rxBuf *compartment.Buffer
}

const gateRxBufSize = 64 << 10

func newGateConn(c streamConn, gate *compartment.Gate, app *compartment.Domain) *gateConn {
	return &gateConn{c: c, gate: gate, app: app, rxBuf: app.Alloc(gateRxBufSize)}
}

func (g *gateConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > gateRxBufSize {
			n = gateRxBufSize
		}
		b := g.gate.AllocTx(n)
		if err := g.gate.FillTx(b, p[:n]); err != nil {
			b.Free()
			return total, err
		}
		err := g.gate.SubmitTx(b, func(payload []byte) error {
			_, werr := g.c.Write(payload[:n])
			return werr
		})
		b.Free()
		if err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

func (g *gateConn) Read(p []byte) (int, error) {
	want := len(p)
	if want > gateRxBufSize {
		want = gateRxBufSize
	}
	n, err := g.gate.Rx(g.rxBuf, func(into []byte) (int, error) {
		return g.c.Read(into[:want])
	})
	if n > 0 {
		data, aerr := g.rxBuf.Access(g.app)
		if aerr != nil {
			return 0, aerr
		}
		copy(p, data[:n])
	}
	return n, err
}

func (g *gateConn) Close() error {
	defer g.rxBuf.Free()
	return g.gate.Call(func(*compartment.Domain) error { return g.c.Close() })
}

// fileSystem is the part of *sfs.FS that sealedFS uses.
type fileSystem interface {
	Create(name string, capacity int64) error
	Write(name string, off int64, p []byte) error
	Read(name string, off int64, p []byte) (int, error)
	Delete(name string) error
}

// sealedFS is stio's sealedFS: records are sealed in the application
// domain before they cross the gate into the filesystem compartment.
type sealedFS struct {
	fs   fileSystem
	gate *compartment.Gate
	aead cipher.AEAD
}

const sealOverhead = 16 + 12

func newSealedFS(fs fileSystem, gate *compartment.Gate, key []byte) (*sealedFS, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &sealedFS{fs: fs, gate: gate, aead: aead}, nil
}

func (s *sealedFS) nonce(name string, off int64, salt []byte) []byte {
	m := hmac.New(sha256.New, salt)
	m.Write([]byte(name))
	var o [8]byte
	binary.BigEndian.PutUint64(o[:], uint64(off))
	m.Write(o[:])
	return m.Sum(nil)[:12]
}

func (s *sealedFS) Create(name string, capacity int64) error {
	return s.gate.Call(func(*compartment.Domain) error {
		return s.fs.Create(name, capacity*2+blockdev.SectorSize)
	})
}

func (s *sealedFS) Write(name string, off int64, p []byte) error {
	var salt [12]byte
	binary.BigEndian.PutUint64(salt[:], uint64(time.Now().UnixNano()))
	nonce := s.nonce(name, off, salt[:])
	sealed := make([]byte, 0, len(p)+sealOverhead)
	sealed = append(sealed, salt[:]...)
	sealed = s.aead.Seal(sealed, nonce, p, []byte(name))
	diskOff := off * 2
	return s.gate.Call(func(*compartment.Domain) error {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(sealed)))
		if err := s.fs.Write(name, diskOff, hdr[:]); err != nil {
			return err
		}
		return s.fs.Write(name, diskOff+4, sealed)
	})
}

var errSealed = errors.New("sealed record verification failed")

func (s *sealedFS) Read(name string, off int64, p []byte) (int, error) {
	diskOff := off * 2
	var sealed []byte
	err := s.gate.Call(func(*compartment.Domain) error {
		var hdr [4]byte
		if _, err := s.fs.Read(name, diskOff, hdr[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > uint32(len(p)+sealOverhead+4096) {
			return errSealed
		}
		sealed = make([]byte, n)
		if _, err := s.fs.Read(name, diskOff+4, sealed); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(sealed) < 12+s.aead.Overhead() {
		return 0, errSealed
	}
	nonce := s.nonce(name, off, sealed[:12])
	pt, err := s.aead.Open(nil, nonce, sealed[12:], []byte(name))
	if err != nil {
		return 0, errSealed
	}
	return copy(p, pt), nil
}

func (s *sealedFS) Delete(name string) error {
	return s.gate.Call(func(*compartment.Domain) error { return s.fs.Delete(name) })
}

// patternDisk is stio's patternDisk: it records the block access pattern
// the host observes.
type patternDisk struct {
	blockdev.Disk
	obs *observe.Meter
}

func (p *patternDisk) ReadSector(lba uint64, buf []byte) error {
	p.obs.Observe(observe.ChDescriptorMeta, blockdev.SectorSize)
	return p.Disk.ReadSector(lba, buf)
}

func (p *patternDisk) WriteSector(lba uint64, data []byte) error {
	p.obs.Observe(observe.ChDescriptorMeta, blockdev.SectorSize)
	return p.Disk.WriteSector(lba, data)
}

// tenantFlow is one traced tenant connection.
type tenantFlow struct {
	sec       *ctlsDec
	port      uint16 // the flow's client-side TCP port
	handshake time.Duration
	close     func()
}

// dialTenant is gateway.Node's tenant dial (hello, then the ctls
// handshake under the tenant's key) with the TCP connection and the
// record layer traced.
func dialTenant(stack *netstack.Stack, gwIP ipv4.Addr, id gateway.TenantID, key []byte, tr *tracer, lane uint64) (*tenantFlow, error) {
	raw, err := stack.Dial(gwIP, gateway.Port, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial: %w", err)
	}
	c := newTCPDec(raw, tr, lane)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write(gateway.EncodeHello(id)); err != nil {
		c.Close()
		return nil, err
	}
	t0 := time.Now()
	sec, err := ctls.Client(c, key, nil)
	hs := time.Since(t0)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("gateway: %v handshake: %w", id, err)
	}
	c.SetReadDeadline(time.Time{})
	return &tenantFlow{
		sec:       newCtlsDec(sec, tr, lane),
		port:      raw.LocalPort(),
		handshake: hs,
		close: func() {
			sec.Close()
			c.Close()
		},
	}, nil
}
