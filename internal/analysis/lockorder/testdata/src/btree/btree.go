// Package btree is a fixture stub whose Tree.mu ranks as a structure
// latch (rank 36); it exercises the cross-package fact path.
package btree

import (
	"core"
	"sync"
)

// Tree carries a rank-36 structure latch.
type Tree struct {
	mu sync.Mutex
}

// Batch is the PR 3 deadlock shape: the structure latch is held while
// re-entering the volume lock (Batch vs Close). Freeze's rank arrives
// via core's exported facts, not source.
func (t *Tree) Batch(v *core.Volume) {
	t.mu.Lock()
	v.Freeze() // want `call to Freeze may acquire core.Volume.mu \(rank 10\) while holding btree.Tree.mu \(rank 36\)`
	t.mu.Unlock()
}

// BatchThenFreeze releases the latch first; legal.
func (t *Tree) BatchThenFreeze(v *core.Volume) {
	t.mu.Lock()
	t.mu.Unlock()
	v.Freeze()
}
