package caf

// White-box regression tests for the event-state callback queue: a
// registered one-shot callback must consume exactly one post, never fire
// twice across release/re-post cycles, and the drained queue must not
// retain consumed closures through its backing array.

import "testing"

// withImage runs body on a single-image machine and fails the test on
// any simulation error.
func withImage(t *testing.T, body func(img *Image)) {
	t.Helper()
	m := NewMachine(Config{Images: 1, Seed: 1})
	m.Launch(body)
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
}

func TestEventCallbackConsumesOnePostExactly(t *testing.T) {
	withImage(t, func(img *Image) {
		m := img.m
		e := img.NewEvent()
		es := m.eventState(e)
		fired := 0
		m.whenPosted(e, func() { fired++ })

		// Two posts: the single callback consumes the first, the second
		// must remain as a plain pending count — not re-fire the stale
		// callback.
		m.post(e)
		m.post(e)
		if fired != 1 {
			t.Errorf("one-shot callback fired %d times, want 1", fired)
		}
		if es.count != 1 {
			t.Errorf("pending count %d after 2 posts / 1 callback, want 1", es.count)
		}
		if es.cbs != nil {
			t.Errorf("drained callback queue retains %d slot(s); backing array leaked", len(es.cbs))
		}
		if !img.EventTryWait(e) || img.EventTryWait(e) {
			t.Error("surviving post not consumable exactly once")
		}
	})
}

func TestEventCallbacksDrainInOrderAcrossPosts(t *testing.T) {
	withImage(t, func(img *Image) {
		m := img.m
		e := img.NewEvent()
		es := m.eventState(e)
		var order []int
		m.whenPosted(e, func() { order = append(order, 1) })
		m.whenPosted(e, func() { order = append(order, 2) })

		m.post(e)
		if len(order) != 1 || order[0] != 1 {
			t.Fatalf("after first post, fired %v, want [1]", order)
		}
		if len(es.cbs) != 1 {
			t.Fatalf("queue holds %d callback(s), want 1", len(es.cbs))
		}
		m.post(e)
		if len(order) != 2 || order[1] != 2 {
			t.Fatalf("after second post, fired %v, want [1 2]", order)
		}
		if es.count != 0 || es.cbs != nil {
			t.Errorf("post-drain state count=%d cbs=%v, want 0/nil", es.count, es.cbs)
		}

		// Reuse cycle: a fresh registration on the released event state
		// fires once on the next post — no stale slot from the previous
		// cycle fires with it.
		m.whenPosted(e, func() { order = append(order, 3) })
		m.post(e)
		if len(order) != 3 || order[2] != 3 {
			t.Errorf("reuse cycle fired %v, want [1 2 3]", order)
		}
		if es.cbs != nil {
			t.Error("reuse cycle leaked its callback queue backing array")
		}
	})
}

func TestEventCallbackRegisteredAgainstBankedPost(t *testing.T) {
	withImage(t, func(img *Image) {
		m := img.m
		e := img.NewEvent()
		m.post(e)
		fired := 0
		// A post is already banked: registration consumes it inline and
		// never enters the queue.
		m.whenPosted(e, func() { fired++ })
		if fired != 1 {
			t.Errorf("registration against banked post fired %d, want 1", fired)
		}
		if es := m.eventState(e); es.count != 0 || es.cbs != nil {
			t.Errorf("state after inline consume: count=%d cbs=%v, want 0/nil", es.count, es.cbs)
		}
	})
}

// TestEventCallbackReentrantPost pins the drain loop against a callback
// that itself posts the event: the nested count must be visible to the
// loop (queued callbacks keep draining) without double-counting.
func TestEventCallbackReentrantPost(t *testing.T) {
	withImage(t, func(img *Image) {
		m := img.m
		e := img.NewEvent()
		es := m.eventState(e)
		var order []int
		m.whenPosted(e, func() { order = append(order, 1); m.post(e) })
		m.whenPosted(e, func() { order = append(order, 2) })
		m.post(e)
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Errorf("reentrant drain fired %v, want [1 2]", order)
		}
		if es.count != 0 || es.cbs != nil {
			t.Errorf("state after reentrant drain: count=%d cbs=%v, want 0/nil", es.count, es.cbs)
		}
	})
}

// TestDeliveryTokensBoundedWithoutNotify: every CopyAsync registers a
// delivery token for EventNotify's porousness. A program that never
// notifies must not keep one token — and with it the copy's record —
// per copy ever made: the list holds the updates in flight, not the
// run's history.
func TestDeliveryTokensBoundedWithoutNotify(t *testing.T) {
	const copies = 1000
	var m *Machine
	m = NewMachine(Config{Images: 2, Seed: 1})
	m.Launch(func(img *Image) {
		ca := NewCoarray[float64](img, nil, 4)
		if img.Rank() == 0 {
			for i := 0; i < copies; i++ {
				CopyAsync(img, ca.Sec(1, 0, 4), ca.Sec(0, 0, 4))
				img.Cofence(AllowNone, AllowNone)
			}
		}
		img.Barrier(nil)
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	// Cofence waits for injection only, so up to a credit window of
	// copies is in flight at once; the list may hold that many.
	if n := cap(m.states[0].pendingDeliv); n > copies/4 {
		t.Errorf("token list grew to %d slots over %d copies", n, copies)
	}
}
