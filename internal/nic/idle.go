package nic

import "time"

// idleSpins is the busy-poll budget: how many consecutive empty polls a
// loop burns before its first wait.
const idleSpins = 64

// Idler is the one idle ladder every polling loop in the repository
// uses: spin idleSpins empty polls, then arm the bell's wake threshold
// (with the lost-wakeup recheck) and wait on the bell, bounded by a
// timer that starts at min and doubles up to max.
//
// The bell is a hint, never trusted state: the peer decides when it
// rings, so every wait is time-bounded and only shifts when the loop
// polls again. A loop without a bell passes nil and waits on the timer
// alone. An Idler belongs to one goroutine.
type Idler struct {
	bell     NotifyHost
	min, max time.Duration
	next     time.Duration
	spins    int
	armed    bool
	timer    *time.Timer
}

// NewIdler builds an idle ladder over bell (nil for none) whose waits
// run from min, doubling, to max.
func NewIdler(bell NotifyHost, min, max time.Duration) *Idler {
	return &Idler{bell: bell, min: min, max: max, next: min}
}

// Worked resets the ladder after a poll that made progress, withdrawing
// the wake threshold if it was armed.
func (i *Idler) Worked() {
	if i.armed {
		i.bell.SuppressNotify()
		i.armed = false
	}
	i.spins = 0
	i.next = i.min
}

// Idle is called after an empty poll. It returns at once while the spin
// budget lasts or when work raced in while arming, and otherwise waits
// for the bell, the timer or stop. It reports false once stop is closed.
func (i *Idler) Idle(stop <-chan struct{}) bool {
	if i.spins < idleSpins {
		i.spins++
		return true
	}
	var ring <-chan struct{}
	if i.bell != nil {
		if !i.armed {
			if i.bell.ArmNotify() {
				return true // work raced in while arming: poll again
			}
			i.armed = true
		}
		ring = i.bell.NotifyChan() // re-fetched: reincarnation replaces the bell
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
	case <-ring:
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
