// Package order is a lint fixture for lockcheck's ordering rules: cycles
// (including through call summaries), self-deadlocks, unmapped mutexes, the
// join rules after a branch, and consistent nesting that must stay clean.
package order

import "sync"

// Shard is one half of the ordering-cycle demo.
type Shard struct {
	mu  sync.Mutex
	val int // guarded by mu
}

// Index is the other half.
type Index struct {
	mu  sync.Mutex
	seq int // guarded by mu
}

// LockBoth nests shard-then-index.
func LockBoth(s *Shard, ix *Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix.mu.Lock() // want lockcheck
	defer ix.mu.Unlock()
	s.val++
	ix.seq++
}

// lockShard acquires the shard lock on behalf of its caller.
func lockShard(s *Shard) {
	s.mu.Lock()
	s.val++
	s.mu.Unlock()
}

// ReversedViaCall reaches the shard lock through a callee while holding the
// index lock: the call-summary edge closes the cycle with LockBoth.
func ReversedViaCall(s *Shard, ix *Index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	lockShard(s) // want lockcheck
}

// Gauge demonstrates the self-deadlock check.
type Gauge struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Bump re-acquires a mutex the function already holds: guaranteed deadlock
// on a non-reentrant mutex.
func (g *Gauge) Bump() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mu.Lock() // want lockcheck
	g.n++
	g.mu.Unlock()
}

// BumpIgnored records a reviewed exception through the escape hatch.
func (g *Gauge) BumpIgnored() {
	g.mu.Lock()
	defer g.mu.Unlock()
	//sthlint:ignore lockcheck fixture: reviewed reentrancy shim
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// Registry's mutex names nothing it guards: an unenforceable discipline.
type Registry struct {
	mu    sync.Mutex // want lockcheck
	items map[string]int
}

// Meta and Data nest consistently package-wide: the acquisition graph stays
// acyclic and no diagnostic fires.
type Meta struct {
	mu  sync.Mutex
	gen int // guarded by mu
}

// Data is always acquired after Meta.
type Data struct {
	mu   sync.Mutex
	rows int // guarded by mu
}

// Snapshot nests meta-then-data.
func Snapshot(m *Meta, d *Data) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	return m.gen + d.rows
}

// Compact nests meta-then-data too: consistent, so no cycle.
func Compact(m *Meta, d *Data) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	m.gen++
	d.rows = 0
}

// Left and Right pin the two join rules after a branch that releases a lock
// on one path only.
type Left struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Right is the other lock of the pair.
type Right struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// ReleasedOnOneBranch may still hold left when it takes right, so right is
// ordered after left; but left is not held on every path, so the read of
// l.n after the branch is unprotected.
func ReleasedOnOneBranch(l *Left, r *Right, early bool) int {
	l.mu.Lock()
	if early {
		l.mu.Unlock()
	}
	r.mu.Lock() // want lockcheck
	defer r.mu.Unlock()
	return l.n // want lockcheck
}

// RightThenLeft nests the other way around: the cycle it closes is visible
// only through the edge ReleasedOnOneBranch records on its may-hold path.
func RightThenLeft(l *Left, r *Right) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.mu.Lock() // want lockcheck
	defer l.mu.Unlock()
	r.n++
	l.n++
}

// fakeMutex has a mutex's method names but is not a sync mutex.
type fakeMutex struct{}

func (fakeMutex) Lock()   {}
func (fakeMutex) Unlock() {}

// Ledger's "lock" is not a sync mutex, so calling its Lock holds nothing.
type Ledger struct {
	mu    fakeMutex
	total int // guarded by mu
}

// Add writes the guarded field after a Lock call that protects nothing.
func (l *Ledger) Add(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total += n // want lockcheck
}
