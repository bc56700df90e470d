package fault

import (
	"errors"
	"os"
	"testing"
	"time"
)

func TestDisarmedInjectIsNil(t *testing.T) {
	Reset()
	if err := Inject("never.armed"); err != nil {
		t.Fatalf("disarmed failpoint fired: %v", err)
	}
}

func TestDeterministicTrigger(t *testing.T) {
	Reset()
	defer Reset()
	Enable("x", Spec{}) // zero Spec: every evaluation fails with ErrInjected
	for i := 0; i < 3; i++ {
		if err := Inject("x"); !errors.Is(err, ErrInjected) {
			t.Fatalf("eval %d: got %v, want ErrInjected", i, err)
		}
	}
	if got := Triggered("x"); got != 3 {
		t.Fatalf("Triggered = %d, want 3", got)
	}
	Disable("x")
	if err := Inject("x"); err != nil {
		t.Fatalf("disabled failpoint fired: %v", err)
	}
}

func TestCustomError(t *testing.T) {
	Reset()
	defer Reset()
	want := errors.New("no space left on device")
	Enable("x", Spec{Err: want})
	if err := Inject("x"); !errors.Is(err, want) {
		t.Fatalf("got %v, want the armed error", err)
	}
}

func TestCountCap(t *testing.T) {
	Reset()
	defer Reset()
	Enable("x", Spec{Count: 2})
	fired := 0
	for i := 0; i < 10; i++ {
		if Inject("x") != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want exactly Count=2", fired)
	}
	if got := Triggered("x"); got != 2 {
		t.Fatalf("Triggered = %d, want 2", got)
	}
}

func TestAfterSkipsEarlyEvaluations(t *testing.T) {
	Reset()
	defer Reset()
	Enable("x", Spec{After: 3, Count: 1})
	for i := 0; i < 3; i++ {
		if err := Inject("x"); err != nil {
			t.Fatalf("eval %d fired before After=3: %v", i, err)
		}
	}
	if err := Inject("x"); err == nil {
		t.Fatal("4th evaluation should fire")
	}
}

func TestProbabilityIsSeededAndPartial(t *testing.T) {
	Reset()
	defer Reset()
	Seed(42)
	Enable("x", Spec{Prob: 0.5})
	fired := 0
	for i := 0; i < 1000; i++ {
		if Inject("x") != nil {
			fired++
		}
	}
	if fired < 400 || fired > 600 {
		t.Fatalf("Prob=0.5 fired %d/1000", fired)
	}
	// The same seed replays the same schedule.
	Reset()
	Seed(42)
	Enable("x", Spec{Prob: 0.5})
	again := 0
	for i := 0; i < 1000; i++ {
		if Inject("x") != nil {
			again++
		}
	}
	if again != fired {
		t.Fatalf("same seed, different schedule: %d vs %d", again, fired)
	}
}

func TestLatency(t *testing.T) {
	Reset()
	defer Reset()
	var slept []time.Duration
	sleep = func(d time.Duration) { slept = append(slept, d) }
	defer func() { sleep = time.Sleep }()
	Enable("x", Spec{Latency: 30 * time.Millisecond})
	if err := Inject("x"); err == nil {
		t.Fatal("latency failpoint should still error")
	}
	if len(slept) != 1 || slept[0] != 30*time.Millisecond {
		t.Fatalf("slept %v, want one 30ms wait", slept)
	}
}

func TestArmedListing(t *testing.T) {
	Reset()
	defer Reset()
	Enable("a.one", Spec{})
	Enable("b.two", Spec{})
	names := map[string]bool{}
	for _, n := range armedNames() {
		names[n] = true
	}
	if !names["a.one"] || !names["b.two"] || len(names) != 2 {
		t.Fatalf("Armed = %v", names)
	}
}

func TestFromEnv(t *testing.T) {
	Reset()
	defer Reset()
	t.Setenv("FLOCK_FAULTS", "wal.fsync:0.25:3, scorer.http")
	if err := FromEnv(); err != nil {
		t.Fatal(err)
	}
	armed := map[string]bool{}
	for _, n := range armedNames() {
		armed[n] = true
	}
	if !armed["wal.fsync"] || !armed["scorer.http"] {
		t.Fatalf("Armed = %v", armed)
	}
	// scorer.http parsed with no prob/count → deterministic.
	if err := Inject("scorer.http"); err == nil {
		t.Fatal("env-armed deterministic failpoint did not fire")
	}

	Reset()
	os.Setenv("FLOCK_FAULTS", "wal.fsync:notanumber")
	defer os.Unsetenv("FLOCK_FAULTS")
	if err := FromEnv(); err == nil {
		t.Fatal("malformed schedule must error")
	}
}
