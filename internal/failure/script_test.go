package failure

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"streamha/internal/clock"
)

func TestParseScript(t *testing.T) {
	s, err := ParseScript(`
		# comment line
		500ms crash   w3

		0ms   crash   w1
		2s    recover w1
	`)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	want := []ScriptEvent{
		{At: 0, Action: ActionCrash, Machine: "w1"},
		{At: 500 * time.Millisecond, Action: ActionCrash, Machine: "w3"},
		{At: 2 * time.Second, Action: ActionRecover, Machine: "w1"},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(s.Events), len(want))
	}
	for i, ev := range s.Events {
		if ev != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"0ms crash",             // missing machine
		"soon crash w1",         // bad offset
		"1s explode w1",         // unknown action
		"1s crash w1 extra arg", // too many fields
	} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("ParseScript(%q): want error, got nil", bad)
		}
	}
}

// formatScript renders s in ParseScript's one-event-per-line format.
func formatScript(s Script) string {
	var b strings.Builder
	for _, ev := range s.Events {
		fmt.Fprintf(&b, "%s %s %s\n", ev.At, ev.Action, ev.Machine)
	}
	return b.String()
}

// FuzzParseScript: ParseScript never panics, and every script it accepts
// reaches a fixed point under parse → format → parse. Byte identity with
// the input is not required: comments, blank lines, spacing and offset
// spellings ("1000ms" vs "1s") are normalized away.
func FuzzParseScript(f *testing.F) {
	for _, seed := range []string{
		"",
		"# only a comment\n",
		"500ms crash   w3\n\n0ms crash w1\n2s recover w1\n",
		"1h2m3.5s recover rack-a/w9\r\n-1ns crash w0",
		"0ms crash",
		"soon crash w1",
		"1s explode w1",
		"1s crash w1 extra arg",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseScript(text)
		if err != nil {
			return
		}
		out := formatScript(s)
		s2, err := ParseScript(out)
		if err != nil {
			t.Fatalf("formatted script does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("parse → format → parse changed the script:\n first %+v\nsecond %+v", s, s2)
		}
		if again := formatScript(s2); again != out {
			t.Fatalf("no fixed point:\n first %q\nsecond %q", out, again)
		}
	})
}

// scriptRecorder records applied events, failing recovers for machines
// never crashed — enough to verify ordering and error capture.
type scriptRecorder struct {
	mu      sync.Mutex
	crashed map[string]bool
	log     []string
}

func (r *scriptRecorder) CrashMachine(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed == nil {
		r.crashed = map[string]bool{}
	}
	r.crashed[id] = true
	r.log = append(r.log, "crash "+id)
	return nil
}

func (r *scriptRecorder) RecoverMachine(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.crashed[id] {
		r.log = append(r.log, "recover? "+id)
		return fmt.Errorf("machine %s not crashed", id)
	}
	delete(r.crashed, id)
	r.log = append(r.log, "recover "+id)
	return nil
}

func TestReplayerAppliesInOrder(t *testing.T) {
	clk := clock.New()
	s, err := ParseScript(`
		0ms  crash   a
		10ms crash   b
		20ms recover a
		30ms recover c
	`)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	rec := &scriptRecorder{}
	rep := NewReplayer(clk, rec, s)
	rep.Start()
	rep.Wait()

	applied := rep.Applied()
	if len(applied) != 4 {
		t.Fatalf("applied %d events, want 4", len(applied))
	}
	for i, ap := range applied {
		if ap.Event != s.Events[i] {
			t.Fatalf("applied[%d] = %+v, want %+v", i, ap.Event, s.Events[i])
		}
	}
	// The recover of the never-crashed machine c surfaces as an error.
	if applied[3].Err == nil {
		t.Fatal("recover of never-crashed machine: want error recorded")
	}
	for i := 0; i < 3; i++ {
		if applied[i].Err != nil {
			t.Fatalf("applied[%d] unexpected error: %v", i, applied[i].Err)
		}
	}
}

func TestReplayerStopAbandonsRest(t *testing.T) {
	clk := clock.New()
	s, err := ParseScript(`
		0ms crash a
		1h  crash b
	`)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	rec := &scriptRecorder{}
	rep := NewReplayer(clk, rec, s)
	rep.Start()
	clk.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() { rep.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return; replayer still waiting on abandoned event")
	}
	if got := len(rep.Applied()); got != 1 {
		t.Fatalf("applied %d events after early stop, want 1", got)
	}
}
