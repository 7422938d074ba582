package server

import (
	"errors"
	"testing"
	"time"
)

const testRules = "FD: CT -> ST"

func testCreateReq() CreateRequest {
	return CreateRequest{
		Rules:   testRules,
		Attrs:   []string{"CT", "ST"},
		Workers: 1,
	}
}

// newTestManager builds a manager with a tight idle timeout and no default
// sweeping delays, cleaned up with the test.
func newTestManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	return m
}

func TestManagerBackpressure(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxSessions: 2})
	s1, err := m.Create(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testCreateReq()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testCreateReq()); !errors.Is(err, ErrBusy) {
		t.Fatalf("third create = %v, want ErrBusy", err)
	}
	// Closing a session frees its slot.
	if err := m.Close(s1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testCreateReq()); err != nil {
		t.Fatalf("create after close = %v", err)
	}
}

func TestManagerDoubleClose(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	s, err := m.Create(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(s.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second close = %v, want ErrNotFound", err)
	}
	if _, err := m.Get(s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after close = %v, want ErrNotFound", err)
	}
	// A closed session accepts nothing more.
	if err := s.Submit([][]string{{"a", "b"}}); err == nil {
		t.Error("submit to closed session succeeded")
	}
}

func TestManagerIdleEviction(t *testing.T) {
	m := newTestManager(t, ManagerConfig{IdleTimeout: 50 * time.Millisecond, SweepInterval: time.Hour})
	s, err := m.Create(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	if n := m.EvictIdle(time.Now()); n != 0 {
		t.Fatalf("fresh session evicted (%d)", n)
	}
	if n := m.EvictIdle(time.Now().Add(time.Second)); n != 1 {
		t.Fatalf("EvictIdle = %d, want 1", n)
	}
	if _, err := m.Get(s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after eviction = %v, want ErrNotFound", err)
	}

	// The background sweeper does the same on its interval.
	m2 := newTestManager(t, ManagerConfig{IdleTimeout: 20 * time.Millisecond, SweepInterval: 10 * time.Millisecond})
	s2, err := m2.Create(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := m2.Get(s2.ID); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper never evicted the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	s, err := m.Create(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Clean(); err == nil {
		t.Error("clean with zero tuples should fail")
	}
	if err := s.Submit([][]string{{"a"}}); err == nil {
		t.Error("submit with wrong row width should fail")
	}
	if err := s.Submit([][]string{{"boaz", "al"}, {"boaz", "al"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	// Wait for the async run, then check post-run transitions.
	deadline := time.Now().Add(10 * time.Second)
	for s.Info().State == StateCleaning {
		if time.Now().After(deadline) {
			t.Fatal("run never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.Info().State; st != StateDone {
		t.Fatalf("state after run = %s (err %q)", st, s.Info().Error)
	}
	if err := s.Submit([][]string{{"x", "y"}}); err == nil {
		t.Error("submit after clean should fail")
	}
	if err := s.Clean(); err == nil {
		t.Error("second clean should fail")
	}
	if _, _, err := s.Versioned(1); err != nil {
		t.Fatalf("result = %v", err)
	}
}

func TestManagerCreateValidation(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	bad := []CreateRequest{
		{Rules: "garbage", Attrs: []string{"A", "B"}},
		{Rules: testRules, Attrs: nil},
		{Rules: "FD: Nope -> ST", Attrs: []string{"CT", "ST"}}, // rule attr not in schema
		{Rules: testRules, Attrs: []string{"CT", "ST"}, Metric: "cosin"},
	}
	for i, req := range bad {
		if _, err := m.Create(req); err == nil {
			t.Errorf("bad create %d succeeded", i)
		}
	}
	if m.Len() != 0 {
		t.Errorf("failed creates leaked %d session slots", m.Len())
	}
}
