package transport

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

func pingHandler(context.Context, *wire.Request) *wire.Response {
	return &wire.Response{Status: wire.StatusOK}
}

var ping = &wire.Request{Kind: wire.KindPing}

// benchmarkNet is the benchmark's network shape: 60 µs + [0, 30 µs) a hop.
func benchmarkNet(seed int64) *ChannelNetwork {
	n := NewChannelNetwork(ChannelConfig{Latency: 60 * time.Microsecond, Jitter: 30 * time.Microsecond, Seed: seed})
	n.Register(0, pingHandler)
	return n
}

// TestDeliverNeverEarly: no wait returns before its delay has passed, however
// many callers share the delivery goroutine. The first half replays what Call
// does with delays it drew itself (so the bound is exact: the two delays
// drawn for the call), the second goes through Call, where the drawn jitter is
// not visible and the bound is the injected delay plus two bare latencies.
func TestDeliverNeverEarly(t *testing.T) {
	const callers, perCaller = 64, 10000 / 64
	n := benchmarkNet(7)
	defer n.Close()
	ctx := context.Background()
	var early atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				d1, d2 := n.hopDelay(), n.hopDelay()
				start := time.Now()
				if err := n.wait(ctx, 0, d1); err != nil {
					t.Error(err)
					return
				}
				if err := n.wait(ctx, 0, d2); err != nil {
					t.Error(err)
					return
				}
				if time.Since(start) < d1+d2 {
					early.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if e := early.Load(); e != 0 {
		t.Fatalf("%d of %d round trips returned before their two delays had passed", e, callers*perCaller)
	}

	var injected sync.Map // *wire.Request -> time.Duration
	n.SetFault(func(_ quorum.NodeID, req *wire.Request) Fault {
		d, _ := injected.Load(req)
		return Fault{Delay: d.(time.Duration)}
	})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 20; i++ {
				req := &wire.Request{Kind: wire.KindPing}
				d := time.Duration(rng.Int63n(int64(300 * time.Microsecond)))
				injected.Store(req, d)
				start := time.Now()
				if _, err := n.Call(ctx, 0, req); err != nil {
					t.Error(err)
					return
				}
				if time.Since(start) < d+2*n.cfg.Latency {
					early.Add(1)
				}
				injected.Delete(req)
			}
		}(c)
	}
	wg.Wait()
	if e := early.Load(); e != 0 {
		t.Fatalf("%d calls returned before injected delay + two hops had passed", e)
	}
}

// TestDeliverOnTimeWhenIdle is the reason the delivery goroutine sleeps in the
// kernel: on an otherwise idle process a 75 µs hop must not be rounded up to
// the netpoller's millisecond. The bound is loose — a Go timer gives a median
// round trip of 2.2 ms here, a kernel-timed one 0.3 ms.
func TestDeliverOnTimeWhenIdle(t *testing.T) {
	if testing.Short() || runtime.GOOS != "linux" {
		t.Skip("timing test; kernel-timed delivery is Linux only")
	}
	n := benchmarkNet(1)
	defer n.Close()
	trips := make([]time.Duration, 301)
	for i := range trips {
		start := time.Now()
		if _, err := n.Call(context.Background(), 0, ping); err != nil {
			t.Fatal(err)
		}
		trips[i] = time.Since(start)
	}
	sort.Slice(trips, func(i, j int) bool { return trips[i] < trips[j] })
	if med := trips[len(trips)/2]; med > 600*time.Microsecond {
		t.Fatalf("median sequential round trip %v at 60 µs + [0, 30 µs) a hop, want <= 0.6 ms (p10 %v, p90 %v)",
			med, trips[len(trips)/10], trips[len(trips)*9/10])
	}
}

// TestDeliverNotHeldBehindLongDelay: the goroutine asleep for a 50 ms injected
// delay is woken by a hop that is due earlier.
func TestDeliverNotHeldBehindLongDelay(t *testing.T) {
	n := benchmarkNet(1)
	defer n.Close()
	slow := &wire.Request{Kind: wire.KindPing}
	n.SetFault(func(_ quorum.NodeID, req *wire.Request) Fault {
		if req == slow {
			return Fault{Delay: 50 * time.Millisecond}
		}
		return Fault{}
	})
	slowDone := make(chan time.Time, 1)
	go func() {
		if _, err := n.Call(context.Background(), 0, slow); err != nil {
			t.Error(err)
		}
		slowDone <- time.Now()
	}()
	// Wait until the delivery goroutine is in the kernel for the slow call.
	for deadline := time.Now().Add(5 * time.Second); ; {
		n.delivery.mu.Lock()
		asleep := n.delivery.asleepUntil > 0
		n.delivery.mu.Unlock()
		if asleep {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delivery goroutine never went to sleep for the delayed call")
		}
		time.Sleep(100 * time.Microsecond)
	}
	start := time.Now()
	if _, err := n.Call(context.Background(), 0, ping); err != nil {
		t.Fatal(err)
	}
	fast := time.Now()
	if took := fast.Sub(start); took > 25*time.Millisecond {
		t.Fatalf("a plain call took %v while a 50 ms delay was pending: held behind it", took)
	}
	if at := <-slowDone; at.Before(fast) {
		t.Fatal("the delayed call returned before the plain call issued after it")
	}
}

// TestDeliverCancelMidHop: a caller that gives up mid-hop returns at once,
// with its error bare, and leaves nothing for the delivery goroutine to
// deliver later.
func TestDeliverCancelMidHop(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{Latency: 10 * time.Second, Seed: 1})
	n.Register(0, pingHandler)
	defer n.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	_, err := n.Call(ctx, 0, ping)
	if err != context.Canceled {
		t.Fatalf("err = %v, want bare context.Canceled", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("cancelled call returned after %v", took)
	}
	n.delivery.mu.Lock()
	left := len(n.delivery.pending)
	n.delivery.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d waits still pending after the only caller gave up", left)
	}
	// The goroutine was asleep for the abandoned hop: it must not sit out the
	// ten seconds in the kernel with nothing to deliver.
	waitFor(t, "delivery goroutine to exit", func() bool {
		n.delivery.mu.Lock()
		defer n.delivery.mu.Unlock()
		return !n.delivery.running
	})
}

// TestDeliverLeavesNothingBehind: tests build networks by the hundred and
// never Close them. A dropped network must not keep a goroutine, an OS thread
// or a descriptor.
func TestDeliverLeavesNothingBehind(t *testing.T) {
	use := func(k int) {
		for i := 0; i < k; i++ {
			n := benchmarkNet(int64(i + 1))
			for j := 0; j < 3; j++ {
				if _, err := n.Call(context.Background(), 0, ping); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	use(20) // let the runtime start whatever threads this pattern needs
	settle := func() (goroutines, threads, fds int) {
		waitFor(t, "goroutines to settle", func() bool {
			g := runtime.NumGoroutine()
			time.Sleep(2 * time.Millisecond)
			return runtime.NumGoroutine() == g
		})
		return runtime.NumGoroutine(), procThreads(), openFDs()
	}
	g0, t0, f0 := settle()
	use(300)
	g1, t1, f1 := settle()
	if g1 > g0 {
		t.Errorf("goroutines %d -> %d after 300 dropped networks", g0, g1)
	}
	if f1 > f0 {
		t.Errorf("open descriptors %d -> %d after 300 dropped networks", f0, f1)
	}
	// The runtime owns the threads and may start one at any time; what must
	// not happen is one per network.
	if t1 > t0+3 {
		t.Errorf("threads %d -> %d after 300 dropped networks", t0, t1)
	}
}

// procThreads reads the process's thread count (-1 where /proc has none).
func procThreads() int {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "Threads:"); ok {
			n, _ := strconv.Atoi(strings.TrimSpace(v))
			return n
		}
	}
	return -1
}

// openFDs counts the process's open descriptors (-1 where /proc has none).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestDeliverNothingAtZeroLatency: a network without latency never touches the
// delivery machinery — its calls complete while the test holds the delivery
// lock.
func TestDeliverNothingAtZeroLatency(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{Seed: 1})
	n.Register(0, pingHandler)
	n.delivery.mu.Lock()
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 100 && err == nil; i++ {
			_, err = n.Call(context.Background(), 0, ping)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("zero-latency calls wait for the delivery lock")
	}
	running := n.delivery.running
	n.delivery.mu.Unlock()
	if running {
		t.Fatal("zero-latency network started a delivery goroutine")
	}
}

// TestCloseStopsDelivery: Close fails the calls still waiting with ErrClosed
// and returns only after the delivery goroutine has exited.
func TestCloseStopsDelivery(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{Latency: 10 * time.Second, Seed: 1})
	n.Register(0, pingHandler)
	errs := make(chan error, 4)
	for i := 0; i < cap(errs); i++ {
		go func() {
			_, err := n.Call(context.Background(), 0, ping)
			errs <- err
		}()
	}
	waitFor(t, "all calls to be waiting", func() bool {
		n.delivery.mu.Lock()
		defer n.delivery.mu.Unlock()
		return len(n.delivery.pending) == cap(errs)
	})
	n.Close()
	// No waiting here: Close has returned, so the goroutine is gone.
	n.delivery.mu.Lock()
	running, left := n.delivery.running, len(n.delivery.pending)
	n.delivery.mu.Unlock()
	if running || left != 0 {
		t.Fatalf("after Close: delivery goroutine running=%v, %d waits pending", running, left)
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("waiting call returned %v, want ErrClosed", err)
		}
	}
	if _, err := n.Call(context.Background(), 0, ping); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close returned %v, want ErrClosed", err)
	}
}

// TestHopJitterDrawsFollowSeed: a call draws its two hop delays from the
// seeded sequence, request hop first, and nothing else does — so a seed
// reproduces the same delays whatever waits on them.
func TestHopJitterDrawsFollowSeed(t *testing.T) {
	const seed, jitter = 42, 30 * time.Microsecond
	n := NewChannelNetwork(ChannelConfig{Latency: time.Microsecond, Jitter: jitter, Seed: seed})
	n.Register(0, pingHandler)
	defer n.Close()
	ref := rand.New(rand.NewSource(seed))
	dropped := &wire.Request{Kind: wire.KindPing}
	n.SetFault(func(_ quorum.NodeID, req *wire.Request) Fault {
		if req == dropped {
			return Fault{Drop: true}
		}
		return Fault{Delay: time.Microsecond} // an injected delay draws nothing
	})
	for i := 0; i < 5; i++ {
		if _, err := n.Call(context.Background(), 0, ping); err != nil {
			t.Fatal(err)
		}
		ref.Int63n(int64(jitter))
		ref.Int63n(int64(jitter))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := n.Call(ctx, 0, dropped); err == nil { // a lost message draws nothing
		t.Fatal("dropped call succeeded")
	}
	if got, want := n.hopDelay(), time.Microsecond+time.Duration(ref.Int63n(int64(jitter))); got != want {
		t.Fatalf("draw after five calls and a drop = %v, want %v: the sequence moved", got, want)
	}
}

// TestCallErrorClassification: wherever a call is waiting when its context
// ends — a hop, an injected delay, a dropped message — an expired deadline is
// a timeout naming the node and a cancellation stays the bare context error.
func TestCallErrorClassification(t *testing.T) {
	waits := []struct {
		name    string
		latency time.Duration
		fault   Fault
	}{
		{"hop", time.Minute, Fault{}},
		{"Fault.Delay", 0, Fault{Delay: time.Minute}},
		{"Fault.Drop", 0, Fault{Drop: true}},
	}
	for _, w := range waits {
		n := NewChannelNetwork(ChannelConfig{Latency: w.latency, Seed: 1})
		n.Register(3, pingHandler)
		fault := w.fault
		n.SetFault(func(quorum.NodeID, *wire.Request) Fault { return fault })

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := n.Call(ctx, 3, ping)
		cancel()
		var te *Error
		if !errors.As(err, &te) || te.Kind != ErrKindTimeout || te.Node != 3 || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s, deadline: err = %#v, want *Error{ErrKindTimeout, node 3} wrapping DeadlineExceeded", w.name, err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		time.AfterFunc(5*time.Millisecond, cancel)
		if _, err = n.Call(ctx, 3, ping); err != context.Canceled {
			t.Errorf("%s, cancelled: err = %#v, want bare context.Canceled", w.name, err)
		}
		n.Close()
	}
}
