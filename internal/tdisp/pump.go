package tdisp

import (
	"sync"
	"time"

	"confio/internal/nic"
)

// Pump runs a device's data-path firmware loop until stopped or until
// the IDE link enters the error state.
type Pump struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu  sync.Mutex
	err error
}

// StartPump begins stepping the device.
func StartPump(d *Device) *Pump {
	p := &Pump{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		idler := nic.NewIdler(20*time.Microsecond, 20*time.Microsecond)
		for {
			select {
			case <-p.stop:
				return
			default:
			}
			worked, err := d.Step()
			if err != nil && err != ErrDetached {
				p.mu.Lock()
				p.err = err
				p.mu.Unlock()
				return
			}
			if worked {
				idler.Worked()
			} else if !idler.Idle(p.stop) {
				return
			}
		}
	}()
	return p
}

// Err returns the error that stopped the pump, if any.
func (p *Pump) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stop halts the pump.
func (p *Pump) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
}
