package backoff

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestPolicyDelayGrowthAndCap(t *testing.T) {
	p := Policy{Base: time.Millisecond, Max: 8 * time.Millisecond}
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	if got := p.Delay(-3); got != p.Delay(0) {
		t.Errorf("negative attempt: got %v, want %v", got, p.Delay(0))
	}
	// Saturating shift: absurd attempt counts must not overflow to zero or
	// negative.
	if got := p.Delay(1 << 20); got != p.Max {
		t.Errorf("Delay(huge) = %v, want cap %v", got, p.Max)
	}
}

func TestPolicyJitterBounds(t *testing.T) {
	p := Policy{Base: time.Millisecond, Max: 16 * time.Millisecond}
	rng := rand.New(rand.NewSource(42))
	for attempt := 0; attempt < 6; attempt++ {
		d := p.Delay(attempt)
		for i := 0; i < 200; i++ {
			j := p.JitteredDelay(attempt, rng.Int63n)
			if j < d/2 || j > d+d/2 {
				t.Fatalf("attempt %d: jittered %v outside [%v, %v]", attempt, j, d/2, d+d/2)
			}
		}
	}
	if j := p.JitteredDelay(3, nil); j != p.Delay(3) {
		t.Errorf("nil draw: got %v, want deterministic %v", j, p.Delay(3))
	}
}

func TestSleepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Minute); err == nil {
		t.Fatal("Sleep with cancelled context returned nil")
	}
	// Zero/negative delays return without arming a timer.
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
	if err := Sleep(context.Background(), -time.Second); err != nil {
		t.Fatalf("Sleep(<0) = %v", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	b := NewBudget(3)
	for i := 0; i < 3; i++ {
		if !b.Take() {
			t.Fatalf("Take %d refused before budget spent", i)
		}
	}
	if b.Take() {
		t.Fatal("Take granted past the budget")
	}
	if b.Take() {
		t.Fatal("exhausted budget granted again")
	}
}

func TestBudgetNilIsUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 1000; i++ {
		if !b.Take() {
			t.Fatal("nil budget refused a Take")
		}
	}
	if NewBudget(0) != nil || NewBudget(-5) != nil {
		t.Fatal("non-positive budgets should be nil (unlimited)")
	}
}

func TestBudgetConcurrentTakes(t *testing.T) {
	const n = 64
	b := NewBudget(n)
	var wg sync.WaitGroup
	granted := make(chan bool, 4*n)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				granted <- b.Take()
			}
		}()
	}
	wg.Wait()
	close(granted)
	got := 0
	for ok := range granted {
		if ok {
			got++
		}
	}
	if got != n {
		t.Fatalf("concurrent Takes granted %d, want exactly %d", got, n)
	}
}
