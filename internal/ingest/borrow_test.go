package ingest

import "testing"

// poisoned turns the borrow contract's tripwire on for the rest of the
// test: every pixel buffer the router frees is filled with NaN, so a
// holder that kept a borrowed frame instead of its own copy — or a pump
// that freed a buffer the fleet still reads — turns the run into a
// different one.
func poisoned(t *testing.T) {
	poisonFreed.Store(true)
	t.Cleanup(func() { poisonFreed.Store(false) })
}

// TestBorrowedBuffers reruns, tripwire on, the wire suites — exactly-once
// delivery, clean and under injected wire faults — and the feeding
// protocol's, which hold each tenant to in-process feeding of the same
// frames: fed in place, queued behind a held pump and drained by its
// holder, over a connection and without one. What the reference computes never touches the free list, so
// each must come out as it does with the tripwire off. The root package's
// wire op runs with it on too.
func TestBorrowedBuffers(t *testing.T) {
	poisoned(t)
	t.Run("LoopbackBitIdentical", TestLoopbackBitIdentical)
	t.Run("LoopbackBitIdenticalUnderFaults", TestLoopbackBitIdenticalUnderFaults)
	t.Run("FeedInPlace", TestFeedInPlace)
	t.Run("PumpWakesOnSubmit", TestPumpWakesOnSubmit)
	t.Run("HolderDrainsConnections", TestHolderDrainsConnections)
}

// TestFreeListBounds pins the free list's contract: a buffer comes back
// out for a frame it fits, the list keeps no more than freeListBytes of
// them — a drained backlog is left to the collector — and a frame larger
// than the top buffer gets a fresh one.
func TestFreeListBounds(t *testing.T) {
	var l freeList
	const n = 16 * 16
	first := l.get(n)
	l.put(first)
	if again := l.get(n); &again[0] != &first[0] {
		t.Fatal("a freed buffer was not handed out again")
	}
	for i := 0; i < 2*freeListBytes/(8*n); i++ {
		l.put(make([]float64, n))
	}
	if l.bytes > freeListBytes || len(l.bufs) != freeListBytes/(8*n) {
		t.Fatalf("free list holds %d buffers, %d bytes; want %d, at most %d", len(l.bufs), l.bytes, freeListBytes/(8*n), freeListBytes)
	}
	if big := l.get(4 * n); len(big) != 4*n || len(l.bufs) != freeListBytes/(8*n) {
		t.Fatalf("a frame larger than every freed buffer took %d pixels off a list of %d", len(big), len(l.bufs))
	}
}
