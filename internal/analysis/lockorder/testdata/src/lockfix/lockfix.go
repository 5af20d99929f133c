// Package lockfix exercises lockorder: acquisition cycles, consistent
// orders, cross-function edges, goroutine boundaries and per-shard
// sequences.
package lockfix

import "sync"

type A struct {
	mu sync.Mutex
	n  int
}

type B struct {
	mu sync.Mutex
	n  int
}

// aThenB and bThenA together acquire A.mu and B.mu in opposite orders:
// the canonical deadlock-capable cycle.
func aThenB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock-order cycle`
	b.n++
	b.mu.Unlock()
	a.n++
}

func bThenA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
	b.n++
}

type C struct {
	mu sync.Mutex
	n  int
}

type D struct {
	mu sync.Mutex
	n  int
}

// cGrabsD orders C.mu before D.mu through a call — the edge must be
// found in bump's body, not at this lexical site.
func cGrabsD(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bump(d) // want `lock-order cycle`
	c.n++
}

func bump(d *D) {
	d.mu.Lock()
	d.n++
	d.mu.Unlock()
}

func dGrabsC(c *C, d *D) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	d.n++
}

type E struct {
	mu sync.Mutex
	n  int
}

type F struct {
	mu sync.Mutex
	n  int
}

// eThenF* always order E.mu before F.mu: consistent, no cycle.
func eThenFDirect(e *E, f *F) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
	e.n++
}

func eThenFViaCall(e *E, f *F) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bumpF(f)
	e.n++
}

func bumpF(f *F) {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
}

type G struct {
	mu sync.Mutex
	n  int
}

type H struct {
	mu sync.Mutex
	n  int
}

func gThenH(g *G, h *H) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
	g.n++
}

// releaseThenAcquire holds H.mu and G.mu only sequentially — no
// overlap, so no H → G edge and no cycle with gThenH.
func releaseThenAcquire(g *G, h *H) {
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// spawnNoEdge takes G.mu on a spawned goroutine while holding H.mu:
// the goroutine does not inherit the spawner's locks, so this must not
// create the H → G edge that would close a cycle with gThenH.
func spawnNoEdge(g *G, h *H) {
	h.mu.Lock()
	defer h.mu.Unlock()
	go func() {
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
	}()
	h.n++
}

// Shard: locking two instances of one type in sequence is the normal
// per-shard sweep; instance identity is statically unknowable, so
// same-node self-edges are never reported.
type Shard struct {
	mu sync.Mutex
	n  int
}

func drain(shards []*Shard) {
	for _, s := range shards {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
}

func pair(s1, s2 *Shard) {
	s1.mu.Lock()
	defer s1.mu.Unlock()
	s2.mu.Lock()
	s2.n++
	s2.mu.Unlock()
	s1.n++
}

type P struct {
	mu sync.Mutex
	n  int
}

type Q struct {
	mu sync.Mutex
	n  int
}

// pThenQ + qThenP form a cycle that is deliberately waived.
func pThenQ(p *P, q *Q) {
	p.mu.Lock()
	defer p.mu.Unlock()
	//lint:allow lockorder fixture: cycle kept to prove suppression works
	q.mu.Lock()
	q.n++
	q.mu.Unlock()
	p.n++
}

func qThenP(p *P, q *Q) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
	q.n++
}
