//go:build !linux

package transport

import "time"

// hopSleeper is the delivery goroutine's wait where no kernel-timed one is
// wired up: a Go timer, with the runtime's timer granularity (see
// sleep_linux.go). The one-slot channel holds a wake that comes before the
// sleep.
type hopSleeper struct{ wakeup chan struct{} }

func newHopSleeper() hopSleeper { return hopSleeper{wakeup: make(chan struct{}, 1)} }

func (s *hopSleeper) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.wakeup:
	}
}

func (s *hopSleeper) wake() {
	select {
	case s.wakeup <- struct{}{}:
	default:
	}
}
