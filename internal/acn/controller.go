package acn

import (
	"context"
	"sync"
	"time"

	"qracn/internal/trace"
)

// ControllerConfig tunes the periodic recomposition.
type ControllerConfig struct {
	// Interval between Algorithm-module invocations (the paper runs it
	// every 10 s; tests use milliseconds). Default 10 s.
	Interval time.Duration
	// Algo configures the algorithm module.
	Algo AlgoConfig
	// TableAlpha is the EMA weight of the client contention table (0: 0.6).
	TableAlpha float64
	// Tracer, when non-nil, records every recomposition in place of the
	// runtime's tracer.
	Tracer *trace.Tracer
}

// Controller is a Hub of one executor plus a timer: the embedded Hub
// observes, recomposes and swaps (Table, Wanted, Sink, RefreshOnce and
// Refreshes are its), and Start runs its refresh every Interval (§V-C3).
type Controller struct {
	*Hub
	interval time.Duration

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{} // nil, or closed once the running loop has exited
}

// NewController builds a controller for the executor.
func NewController(exec *Executor, cfg ControllerConfig) *Controller {
	if cfg.Interval == 0 {
		cfg.Interval = 10 * time.Second
	}
	hub := NewHub(exec.Runtime(), HubConfig{TableAlpha: cfg.TableAlpha})
	if cfg.Tracer != nil {
		hub.tracer = cfg.Tracer
	}
	hub.Register(exec, cfg.Algo)
	return &Controller{Hub: hub, interval: cfg.Interval}
}

// Start launches the periodic refresh loop (asynchronous, per §V-C3). It is a
// no-op while a loop is running; a loop whose context has ended has exited
// and counts as stopped, so a later Start runs a new one.
func (c *Controller) Start(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running() {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	c.stop, c.done = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(c.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				_ = c.refresh(ctx, "interval") // transient quorum errors: retry next tick
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
}

// running reports whether the last loop started is still live. The caller
// holds c.mu.
func (c *Controller) running() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// Stop halts the refresh loop and waits for it to exit.
func (c *Controller) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop, c.done = nil, nil
}
