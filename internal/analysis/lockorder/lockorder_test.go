package lockorder_test

import (
	"testing"

	"repro/internal/analysis/anatest"
	"repro/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	// core first: btree's inversion is only visible through core's
	// exported function summaries (the facts path).
	anatest.Run(t, lockorder.Analyzer, "core", "btree")
}

// TestLockOrderPagerQueue: the pager's replacement queue ranks below its
// shard latches, so a shard → queue edge is an inversion.
func TestLockOrderPagerQueue(t *testing.T) {
	anatest.Run(t, lockorder.Analyzer, "pager")
}
