//go:build linux

package transport

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// hopSleeper is the delivery goroutine's wait: block the thread in the
// kernel for a sub-millisecond time, or until wake. On Linux that is a futex
// wait with a relative timeout — the kernel arms a high-resolution timer for
// it, where the Go runtime's own timers are waited for in epoll_wait with a
// millisecond timeout once every P is idle. A futex needs no descriptor, so
// there is nothing to close when a network is dropped.
//
// word is 1 while a wake is pending, so a wake that comes before the sleep
// is not lost: the kernel refuses to wait on a word that is not 0.
type hopSleeper struct{ word uint32 }

func newHopSleeper() hopSleeper { return hopSleeper{} }

const (
	futexWaitPrivate = 0 | 128 // FUTEX_WAIT | FUTEX_PRIVATE_FLAG
	futexWakePrivate = 1 | 128 // FUTEX_WAKE | FUTEX_PRIVATE_FLAG
)

// sleep returns after d, after a wake, or spuriously (a signal); the caller
// looks at the clock again either way.
func (s *hopSleeper) sleep(d time.Duration) {
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// Errors are the three ways of not sleeping the whole time (EAGAIN:
		// a wake is pending; ETIMEDOUT; EINTR), none of them a failure.
		_, _, _ = syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.word)),
			futexWaitPrivate, 0, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
	atomic.StoreUint32(&s.word, 0)
}

// wake ends the current sleep, or the next one if none is in progress.
func (s *hopSleeper) wake() {
	if atomic.SwapUint32(&s.word, 1) == 0 {
		_, _, _ = syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.word)),
			futexWakePrivate, 1, 0, 0, 0)
	}
}
