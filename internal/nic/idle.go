package nic

import "time"

// idleSpins is the busy-poll budget: how many consecutive empty polls a
// loop burns before its first wait.
const idleSpins = 64

// maxWakes is how many wake sources one Idler watches: a host pump
// waits on its backend's ring and on its wire port at once.
const maxWakes = 2

// Idler is the one idle ladder every polling loop in the repository
// uses: spin idleSpins empty polls, then arm each wake source (with the
// lost-wakeup recheck) and wait until one of them fires, bounded by a
// timer that starts at min and doubles up to max.
//
// A wake is a hint, never trusted state: the peer decides when it
// fires, so every wait is time-bounded and only shifts when the loop
// polls again. A loop without a wake source waits on the timer alone.
// An Idler belongs to one goroutine.
type Idler struct {
	wakes    [maxWakes]NotifyHost
	armed    [maxWakes]bool
	n        int
	min, max time.Duration
	next     time.Duration
	spins    int
	timer    *time.Timer
}

// NewIdler builds an idle ladder whose waits run from min, doubling, to
// max, waking early when any of wakes fires. Nil sources are skipped;
// more than two panic.
func NewIdler(min, max time.Duration, wakes ...NotifyHost) *Idler {
	i := &Idler{min: min, max: max, next: min}
	for _, w := range wakes {
		if w == nil {
			continue
		}
		if i.n == maxWakes {
			panic("nic: an Idler watches at most two wake sources")
		}
		i.wakes[i.n] = w
		i.n++
	}
	return i
}

// Worked resets the ladder after a poll that made progress, withdrawing
// each wake threshold that was armed.
func (i *Idler) Worked() {
	for k := 0; k < i.n; k++ {
		if i.armed[k] {
			i.wakes[k].SuppressNotify()
			i.armed[k] = false
		}
	}
	i.spins = 0
	i.next = i.min
}

// Idle is called after an empty poll. It returns at once while the spin
// budget lasts or when work raced in while arming, and otherwise waits
// for a wake, the timer or stop. It reports false once stop is closed.
//
// A source whose ArmNotify reports waiting work stays unarmed and the
// loop polls again; sources armed before it stay armed until Worked.
func (i *Idler) Idle(stop <-chan struct{}) bool {
	if i.spins < idleSpins {
		i.spins++
		return true
	}
	var ring [maxWakes]<-chan struct{}
	for k := 0; k < i.n; k++ {
		if !i.armed[k] {
			if i.wakes[k].ArmNotify() {
				return true // work raced in while arming: poll again
			}
			i.armed[k] = true
		}
		ring[k] = i.wakes[k].NotifyChan() // re-fetched: reincarnation replaces it
	}
	d := i.next
	i.next = min(2*d, i.max)
	if i.timer == nil {
		i.timer = time.NewTimer(d)
	} else {
		i.timer.Reset(d)
	}
	select {
	case <-i.timer.C:
		return true
	case <-ring[0]:
		i.stopTimer()
		return true
	case <-ring[1]:
		i.stopTimer()
		return true
	case <-stop:
		i.stopTimer()
		return false
	}
}

// stopTimer stops the timer and drains a tick that fired meanwhile, so
// the next Reset starts clean.
func (i *Idler) stopTimer() {
	if !i.timer.Stop() {
		select {
		case <-i.timer.C:
		default:
		}
	}
}
