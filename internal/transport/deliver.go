package transport

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"time"

	"qracn/internal/quorum"
)

// lost is the delay of a message that never arrives (Fault.Drop): the wait
// ends only with the caller's context.
const lost = time.Duration(math.MaxInt64)

// hopWait is one caller waiting for its message to be delivered.
type hopWait struct {
	// due is the delivery time on the network's clock (ChannelNetwork.since).
	due time.Duration
	// ready receives the outcome exactly once if the delivery goroutine takes
	// the waiter out of the heap: nil on time, ErrClosed when the network
	// closes first. One slot, so the delivery goroutine never blocks on a
	// caller that has already given up.
	ready chan error
	// index is the waiter's heap position, -1 once it is out of the heap.
	index int
}

var hopWaits = sync.Pool{New: func() any { return &hopWait{ready: make(chan error, 1)} }}

// hopHeap orders pending waits by delivery time.
type hopHeap []*hopWait

func (h hopHeap) Len() int           { return len(h) }
func (h hopHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h hopHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *hopHeap) Push(x any) {
	w := x.(*hopWait)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *hopHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	w.index = -1
	return w
}

// delivery is the network's one timed wait. Callers park on a pooled hopWait;
// a single goroutine per network keeps the pending waits in a deadline heap,
// sleeps in the kernel until the earliest is due (hopSleeper: a Go timer
// would round a 75 µs sleep up to the netpoller's millisecond whenever the
// process is otherwise idle) and releases every wait that is due when it
// wakes — never one that is not.
//
// The goroutine exists only while something is pending: the first wait starts
// it, it returns when the heap is empty, and Close stops it. A network that
// is dropped without Close therefore leaves nothing behind, and one that
// never delays a message never starts it.
type delivery struct {
	mu      sync.Mutex
	pending hopHeap
	// running: the delivery goroutine exists. asleepUntil is the due time it
	// went into the kernel for, 0 while it is awake; a wait that is due
	// earlier must wake it, any other is seen when it next looks at the heap.
	running     bool
	asleepUntil time.Duration
	closed      bool
	sleeper     hopSleeper
	// exited counts delivery goroutines still to return, so close can wait.
	exited sync.WaitGroup
}

// since is the network's clock: monotonic time since it was built.
func (n *ChannelNetwork) since() time.Duration { return time.Since(n.epoch) }

// wait blocks for d — one hop, an injected delay, or with d == lost for as
// long as the caller's context lives. It is the only place a call waits, so
// an expired deadline reads the same wherever it struck: a timeout naming the
// node (context.Canceled stays bare: the caller gave up, which says nothing
// about the node).
func (n *ChannelNetwork) wait(ctx context.Context, to quorum.NodeID, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return classify(to, ErrKindTimeout, err)
	}
	if d <= 0 {
		return nil
	}
	if d == lost {
		<-ctx.Done()
		return classify(to, ErrKindTimeout, ctx.Err())
	}
	dl := &n.delivery
	w := hopWaits.Get().(*hopWait)
	dl.mu.Lock()
	if dl.closed {
		dl.mu.Unlock()
		hopWaits.Put(w)
		return ErrClosed
	}
	w.due = n.since() + d
	heap.Push(&dl.pending, w)
	wake := false
	switch {
	case !dl.running:
		dl.running = true
		dl.exited.Add(1)
		go n.deliver()
	case dl.asleepUntil > w.due:
		dl.asleepUntil = w.due // later waits due after this one need not wake it again
		wake = true
	}
	dl.mu.Unlock()
	if wake {
		dl.sleeper.wake()
	}

	select {
	case err := <-w.ready:
		hopWaits.Put(w)
		return err
	case <-ctx.Done():
		dl.mu.Lock()
		if w.index >= 0 {
			// If the goroutine is asleep for this very wait, wake it: it may
			// have nothing left to stay for.
			wake = w.index == 0 && dl.asleepUntil != 0
			heap.Remove(&dl.pending, w.index)
		} else {
			<-w.ready // released while we were giving up: take it back, the waiter is reused
		}
		dl.mu.Unlock()
		if wake {
			dl.sleeper.wake()
		}
		hopWaits.Put(w)
		return classify(to, ErrKindTimeout, ctx.Err())
	}
}

// deliver is the delivery goroutine.
func (n *ChannelNetwork) deliver() {
	dl := &n.delivery
	defer dl.exited.Done()
	dl.mu.Lock()
	for {
		dl.asleepUntil = 0
		now := n.since()
		for len(dl.pending) > 0 && (dl.closed || dl.pending[0].due <= now) {
			w := heap.Pop(&dl.pending).(*hopWait)
			if dl.closed {
				w.ready <- ErrClosed
			} else {
				w.ready <- nil
			}
		}
		if len(dl.pending) == 0 {
			dl.running = false
			dl.mu.Unlock()
			return
		}
		next := dl.pending[0].due
		dl.asleepUntil = next
		dl.mu.Unlock()
		dl.sleeper.sleep(next - now)
		dl.mu.Lock()
	}
}

// close fails every pending wait with ErrClosed and returns once the
// delivery goroutine has exited.
func (dl *delivery) close() {
	dl.mu.Lock()
	dl.closed = true
	dl.mu.Unlock()
	dl.sleeper.wake()
	dl.exited.Wait()
}
