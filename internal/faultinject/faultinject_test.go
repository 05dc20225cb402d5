package faultinject

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsNoop(t *testing.T) {
	var inj *Injector
	if err := inj.Hit(DSEEval); err != nil {
		t.Fatalf("nil injector returned %v", err)
	}
	inj.Arm(DSEEval, Plan{})
	inj.Disarm(DSEEval)
	if inj.Fires(DSEEval) != 0 || inj.Hits(DSEEval) != 0 {
		t.Fatal("nil injector counted")
	}
}

func TestUnarmedPointIsNoop(t *testing.T) {
	inj := New(1)
	for k := 0; k < 10; k++ {
		if err := inj.Hit(ATPGPattern); err != nil {
			t.Fatalf("unarmed point returned %v", err)
		}
	}
	if inj.Fires(ATPGPattern) != 0 {
		t.Fatal("unarmed point fired")
	}
}

func TestErrorEveryNWithLimit(t *testing.T) {
	inj := New(1)
	sentinel := errors.New("boom")
	inj.Arm(CacheRead, Plan{Mode: ModeError, Every: 3, Limit: 2, Err: sentinel})
	var fired int
	for k := 1; k <= 12; k++ {
		err := inj.Hit(CacheRead)
		if k%3 == 0 && fired < 2 {
			if !errors.Is(err, sentinel) {
				t.Fatalf("hit %d: err = %v, want sentinel", k, err)
			}
			fired++
		} else if err != nil {
			t.Fatalf("hit %d fired unexpectedly: %v", k, err)
		}
	}
	if got := inj.Fires(CacheRead); got != 2 {
		t.Fatalf("fires = %d, want 2 (limit)", got)
	}
	if got := inj.Hits(CacheRead); got != 12 {
		t.Fatalf("hits = %d, want 12", got)
	}
}

func TestDefaultErrorIsErrInjected(t *testing.T) {
	inj := New(1)
	inj.Arm(CacheWrite, Plan{Mode: ModeError})
	if err := inj.Hit(CacheWrite); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestPanicModeCarriesPanicValue(t *testing.T) {
	inj := New(1)
	inj.Arm(DSEEval, Plan{Mode: ModePanic})
	defer func() {
		r := recover()
		pv, ok := r.(*PanicValue)
		if !ok {
			t.Fatalf("recovered %T, want *PanicValue", r)
		}
		if pv.Point != DSEEval || pv.N != 1 {
			t.Fatalf("panic value = %+v", pv)
		}
	}()
	inj.Hit(DSEEval)
	t.Fatal("Hit did not panic")
}

func TestCancelMode(t *testing.T) {
	inj := New(1)
	inj.Arm(DSEEval, Plan{Mode: ModeCancel})
	if err := inj.Hit(DSEEval); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSleepModeDelaysAndSucceeds(t *testing.T) {
	inj := New(1)
	inj.Arm(ATPGPattern, Plan{Mode: ModeSleep, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := inj.Hit(ATPGPattern); err != nil {
		t.Fatalf("sleep mode returned %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("sleep mode did not delay")
	}
}

func TestProbIsSeededDeterministic(t *testing.T) {
	fires := func(seed int64) []bool {
		inj := New(seed)
		inj.Arm(DSEEval, Plan{Mode: ModeError, Prob: 0.5})
		out := make([]bool, 64)
		for k := range out {
			out[k] = inj.Hit(DSEEval) != nil
		}
		return out
	}
	a, b := fires(42), fires(42)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverged at hit %d", k)
		}
	}
	n := 0
	for _, f := range a {
		if f {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Fatalf("prob 0.5 fired %d/%d times", n, len(a))
	}
}

func TestArmResetsCounts(t *testing.T) {
	inj := New(1)
	inj.Arm(DSEEval, Plan{Mode: ModeError})
	inj.Hit(DSEEval)
	inj.Arm(DSEEval, Plan{Mode: ModeError, Every: 2})
	if inj.Hits(DSEEval) != 0 || inj.Fires(DSEEval) != 0 {
		t.Fatal("re-arming did not reset counts")
	}
}

// TestConcurrentHits checks the fire accounting is exact under
// concurrency: with Every=1 and a limit, exactly Limit hits fail.
func TestConcurrentHits(t *testing.T) {
	inj := New(1)
	inj.Arm(DSEEval, Plan{Mode: ModeError, Limit: 10})
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if inj.Hit(DSEEval) != nil {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed != 10 {
		t.Fatalf("failed hits = %d, want 10", failed)
	}
	if inj.Hits(DSEEval) != 800 {
		t.Fatalf("hits = %d, want 800", inj.Hits(DSEEval))
	}
}

// TestTornWriteMode checks the typed error, the fire ordinal and the
// default/explicit prefix fractions.
func TestTornWriteMode(t *testing.T) {
	inj := New(1)
	inj.Arm(CacheWrite, Plan{Mode: ModeTornWrite})
	var torn *TornWriteError
	if err := inj.Hit(CacheWrite); !errors.As(err, &torn) {
		t.Fatalf("Hit = %v, want *TornWriteError", err)
	} else if torn.Frac != 0.5 || torn.Point != CacheWrite || torn.N != 1 {
		t.Fatalf("default torn error = %+v, want frac 0.5, point %s, n 1", torn, CacheWrite)
	}
	inj.Arm(Checkpoint, Plan{Mode: ModeTornWrite, Frac: 0.25})
	if err := inj.Hit(Checkpoint); !errors.As(err, &torn) || torn.Frac != 0.25 {
		t.Fatalf("Hit = %v, want torn with frac 0.25", err)
	}
}
