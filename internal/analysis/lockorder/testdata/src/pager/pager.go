// Package pager is a fixture stub mirroring the real pager's two ranked
// locks: the replacement queue's mutex (rank 38) and the shard latch
// (rank 40).
package pager

import "sync"

type sieve struct {
	mu sync.Mutex
}

type shard struct {
	mu sync.Mutex
}

// Pager carries one queue and its shards.
type Pager struct {
	q      sieve
	shards [2]shard
}

// evict is the miss path's order: the queue first, then the latch of
// the page the hand looks at.
func (p *Pager) evict() {
	p.q.mu.Lock()
	p.shards[0].mu.Lock()
	p.shards[0].mu.Unlock()
	p.q.mu.Unlock()
}

// admitUnderLatch inverts it: a miss that still holds its shard latch
// when it takes the queue.
func (p *Pager) admitUnderLatch() {
	p.shards[1].mu.Lock()
	p.q.mu.Lock() // want `acquires pager queue mutex \(rank 38\) while holding pager shard latch \(rank 40\)`
	p.q.mu.Unlock()
	p.shards[1].mu.Unlock()
}

// invalidate is reached from under a shard latch below.
func (p *Pager) invalidate() {
	p.q.mu.Lock()
	p.q.mu.Unlock()
}

// releaseThenInvalidate calls into the queue with a latch held.
func (p *Pager) releaseThenInvalidate() {
	p.shards[0].mu.Lock()
	p.invalidate() // want `call to invalidate may acquire pager queue mutex \(rank 38\) while holding pager shard latch \(rank 40\)`
	p.shards[0].mu.Unlock()
}
