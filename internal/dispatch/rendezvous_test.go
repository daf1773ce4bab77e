package dispatch

import (
	"fmt"
	"testing"
)

// testKeys is a deterministic spread of affinity-key-shaped strings.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fp-%04x|seed=%d|powercap=%d", i*2654435761, i%7, 150+i)
	}
	return keys
}

// TestRendezvousRemovalStability pins rendezvous hashing's defining
// property: removing a member remaps ONLY the keys it owned. Everything
// another member owned stays put — which is exactly why affinity
// routing keeps fleet caches warm through a replica outage.
func TestRendezvousRemovalStability(t *testing.T) {
	names := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	keys := testKeys(512)

	before := make(map[string]string, len(keys))
	perOwner := map[string]int{}
	for _, k := range keys {
		o := RendezvousOwner(k, names)
		before[k] = o
		perOwner[o]++
	}
	// Sanity: all three members own a nontrivial share (fnv64a spreads).
	for _, n := range names {
		if perOwner[n] < len(keys)/10 {
			t.Fatalf("member %s owns only %d of %d keys — hash is not spreading", n, perOwner[n], len(keys))
		}
	}

	removed := names[2]
	survivors := names[:2]
	for _, k := range keys {
		after := RendezvousOwner(k, survivors)
		if before[k] != removed && after != before[k] {
			t.Fatalf("key %q moved %s -> %s although its owner %s survived", k, before[k], after, before[k])
		}
		if before[k] == removed && after == removed {
			t.Fatalf("key %q still owned by removed member %s", k, removed)
		}
	}
}

// TestRendezvousAdditionStability: adding a member steals only the keys
// it now wins; no key moves between pre-existing members.
func TestRendezvousAdditionStability(t *testing.T) {
	names := []string{"http://a:8080", "http://b:8080"}
	added := "http://d:8080"
	keys := testKeys(512)

	stolen := 0
	for _, k := range keys {
		before := RendezvousOwner(k, names)
		after := RendezvousOwner(k, append([]string{added}, names...))
		switch after {
		case added:
			stolen++
		case before:
		default:
			t.Fatalf("key %q moved %s -> %s on addition of %s", k, before, after, added)
		}
	}
	if stolen == 0 || stolen == len(keys) {
		t.Fatalf("added member stole %d of %d keys — want a proper fraction", stolen, len(keys))
	}
}

// TestRendezvousOrderIndependence: the owner depends on the membership
// SET, not the listing order — replicas with differently ordered -peers
// flags must still agree.
func TestRendezvousOrderIndependence(t *testing.T) {
	a := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	b := []string{"http://c:8080", "http://a:8080", "http://b:8080"}
	for _, k := range testKeys(64) {
		if RendezvousOwner(k, a) != RendezvousOwner(k, b) {
			t.Fatalf("key %q: owner depends on membership order", k)
		}
	}
}

func TestRendezvousEmpty(t *testing.T) {
	if got := RendezvousOwner("k", nil); got != "" {
		t.Fatalf("RendezvousOwner with no members = %q, want \"\"", got)
	}
}
