package nic

import (
	"testing"
	"time"
)

// fakeBell is a NotifyHost whose arming outcome the test sets and whose
// calls it counts.
type fakeBell struct {
	ch         chan struct{}
	raced      bool // ArmNotify's answer: work raced in while arming
	arms       int
	suppresses int
}

func newFakeBell() *fakeBell { return &fakeBell{ch: make(chan struct{}, 1)} }

func (f *fakeBell) ArmNotify() bool             { f.arms++; return f.raced }
func (f *fakeBell) SuppressNotify()             { f.suppresses++ }
func (f *fakeBell) NotifyChan() <-chan struct{} { return f.ch }

func (f *fakeBell) ring() {
	select {
	case f.ch <- struct{}{}:
	default:
	}
}

// spinDown burns the Idler's busy-poll budget; none of it may wait.
func spinDown(t *testing.T, i *Idler, stop <-chan struct{}) {
	t.Helper()
	start := time.Now()
	for n := 0; n < idleSpins; n++ {
		if !i.Idle(stop) {
			t.Fatal("Idle reported stop during the spin budget")
		}
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("spin budget took %v: it waited", d)
	}
}

// long is a wait no prompt wake may approach; a missing wake path then
// fails the test after long instead of hanging it.
const long = 10 * time.Second

// forEachBell runs f without a bell and with a bell that never rings.
func forEachBell(t *testing.T, f func(t *testing.T, bell NotifyHost)) {
	t.Run("nil bell", func(t *testing.T) { f(t, nil) })
	t.Run("silent bell", func(t *testing.T) { f(t, newFakeBell()) })
}

// timedIdle runs one Idle call and reports its result and duration.
func timedIdle(i *Idler, stop <-chan struct{}) (bool, time.Duration) {
	start := time.Now()
	ok := i.Idle(stop)
	return ok, time.Since(start)
}

func TestIdlerArmRacePollsAgain(t *testing.T) {
	bell := newFakeBell()
	bell.raced = true
	i := NewIdler(long, long, bell)
	stop := make(chan struct{})
	spinDown(t, i, stop)
	if ok, d := timedIdle(i, stop); !ok || d > long/2 {
		t.Fatalf("Idle after a raced arm = %v after %v, want an immediate true", ok, d)
	}
	if bell.arms != 1 || i.armed[0] {
		t.Fatalf("arms = %d, armed = %v: want one attempt and left unarmed", bell.arms, i.armed)
	}
	i.Worked()
	if bell.suppresses != 0 {
		t.Fatalf("Worked suppressed %d times on an unarmed Idler", bell.suppresses)
	}
}

func TestIdlerWaitBoundedByMax(t *testing.T) {
	const lo, hi = 2 * time.Millisecond, 8 * time.Millisecond
	forEachBell(t, func(t *testing.T, bell NotifyHost) {
		i := NewIdler(lo, hi, bell)
		stop := make(chan struct{})
		spinDown(t, i, stop)
		// 2, 4, 8, 8 ms: the ladder doubles and then holds at max.
		for n, want := range []time.Duration{lo, 2 * lo, hi, hi} {
			ok, d := timedIdle(i, stop)
			if !ok {
				t.Fatalf("wait %d reported stop", n)
			}
			// A timer never fires early; the upper slack absorbs a
			// loaded scheduler, not a missing bound.
			if d < want || d > want+time.Second {
				t.Fatalf("wait %d took %v, want %v", n, d, want)
			}
		}
	})
}

func TestIdlerRingWakesBeforeTimer(t *testing.T) {
	bell := newFakeBell()
	i := NewIdler(long, long, bell)
	stop := make(chan struct{})
	spinDown(t, i, stop)
	go func() {
		time.Sleep(time.Millisecond)
		bell.ring()
	}()
	if ok, d := timedIdle(i, stop); !ok || d > long/2 {
		t.Fatalf("Idle = %v after %v, want the ring to wake it", ok, d)
	}
	if bell.arms != 1 {
		t.Fatalf("arms = %d before the wait, want 1", bell.arms)
	}
}

func TestIdlerWorkedSuppressesOnceAfterArming(t *testing.T) {
	bell := newFakeBell()
	i := NewIdler(time.Microsecond, time.Microsecond, bell)
	stop := make(chan struct{})
	i.Worked()
	if bell.suppresses != 0 {
		t.Fatalf("Worked on a fresh Idler suppressed %d times", bell.suppresses)
	}
	spinDown(t, i, stop)
	for n := 0; n < 3; n++ {
		i.Idle(stop)
	}
	if bell.arms != 1 {
		t.Fatalf("arms = %d over three waits, want 1 (stays armed)", bell.arms)
	}
	i.Worked()
	i.Worked()
	if bell.suppresses != 1 {
		t.Fatalf("suppresses = %d, want exactly 1 after arming", bell.suppresses)
	}
	// Worked restarted the spin budget: the next arm comes only after it.
	spinDown(t, i, stop)
	if bell.arms != 1 {
		t.Fatalf("arms = %d during the renewed spin budget, want 1", bell.arms)
	}
}

func TestIdlerStopEndsWait(t *testing.T) {
	forEachBell(t, func(t *testing.T, bell NotifyHost) {
		i := NewIdler(long, long, bell)
		stop := make(chan struct{})
		spinDown(t, i, stop)
		go func() {
			time.Sleep(time.Millisecond)
			close(stop)
		}()
		if ok, d := timedIdle(i, stop); ok || d > long/2 {
			t.Fatalf("Idle = %v after %v, want false once stop closes", ok, d)
		}
	})
}

func TestIdlerWaitDoesNotAllocate(t *testing.T) {
	forEachBell(t, func(t *testing.T, bell NotifyHost) {
		i := NewIdler(time.Microsecond, time.Microsecond, bell)
		stop := make(chan struct{})
		spinDown(t, i, stop)
		i.Idle(stop) // the first wait builds the timer
		if a := testing.AllocsPerRun(100, func() { i.Idle(stop) }); a != 0 {
			t.Fatalf("Idle allocates %v per wait, want 0", a)
		}
	})
}

// Two wake sources: a host pump waits on its backend's ring and on its
// wire port at once.

func TestIdlerEitherSourceWakes(t *testing.T) {
	for k := 0; k < 2; k++ {
		bells := [2]*fakeBell{newFakeBell(), newFakeBell()}
		i := NewIdler(long, long, bells[0], bells[1])
		stop := make(chan struct{})
		spinDown(t, i, stop)
		go func() {
			time.Sleep(time.Millisecond)
			bells[k].ring()
		}()
		if ok, d := timedIdle(i, stop); !ok || d > long/2 {
			t.Fatalf("source %d rang: Idle = %v after %v, want a prompt wake", k, ok, d)
		}
		if bells[0].arms != 1 || bells[1].arms != 1 {
			t.Fatalf("source %d rang: arms = %d, %d before the wait, want 1 each", k, bells[0].arms, bells[1].arms)
		}
	}
}

func TestIdlerEitherArmRacePollsAgain(t *testing.T) {
	for k := 0; k < 2; k++ {
		bells := [2]*fakeBell{newFakeBell(), newFakeBell()}
		bells[k].raced = true
		i := NewIdler(long, long, bells[0], bells[1])
		stop := make(chan struct{})
		spinDown(t, i, stop)
		if ok, d := timedIdle(i, stop); !ok || d > long/2 {
			t.Fatalf("source %d raced: Idle = %v after %v, want an immediate true", k, ok, d)
		}
		if i.armed[k] {
			t.Fatalf("source %d raced but was left armed", k)
		}
		// Sources are armed in order: one armed before the raced one
		// stays armed, so Worked withdraws exactly its threshold.
		i.Worked()
		for j, b := range bells {
			want := 0
			if j < k {
				want = 1
			}
			if b.suppresses != want {
				t.Fatalf("source %d raced: source %d suppressed %d times, want %d", k, j, b.suppresses, want)
			}
		}
	}
}

func TestIdlerWorkedSuppressesEachArmedSourceOnce(t *testing.T) {
	a, b := newFakeBell(), newFakeBell()
	i := NewIdler(time.Microsecond, time.Microsecond, a, b)
	stop := make(chan struct{})
	spinDown(t, i, stop)
	for n := 0; n < 3; n++ {
		i.Idle(stop)
	}
	if a.arms != 1 || b.arms != 1 {
		t.Fatalf("arms = %d, %d over three waits, want 1 each (stay armed)", a.arms, b.arms)
	}
	i.Worked()
	i.Worked()
	if a.suppresses != 1 || b.suppresses != 1 {
		t.Fatalf("suppresses = %d, %d, want exactly 1 each", a.suppresses, b.suppresses)
	}
}

func TestIdlerSkipsNilSources(t *testing.T) {
	bell := newFakeBell()
	i := NewIdler(long, long, nil, bell)
	stop := make(chan struct{})
	spinDown(t, i, stop)
	go func() {
		time.Sleep(time.Millisecond)
		bell.ring()
	}()
	if ok, d := timedIdle(i, stop); !ok || d > long/2 {
		t.Fatalf("Idle = %v after %v, want the non-nil source to wake it", ok, d)
	}
}

func TestIdlerTwoSourceWaitDoesNotAllocate(t *testing.T) {
	i := NewIdler(time.Microsecond, time.Microsecond, newFakeBell(), newFakeBell())
	stop := make(chan struct{})
	spinDown(t, i, stop)
	i.Idle(stop) // the first wait builds the timer
	if a := testing.AllocsPerRun(100, func() { i.Idle(stop) }); a != 0 {
		t.Fatalf("Idle allocates %v per wait, want 0", a)
	}
}
