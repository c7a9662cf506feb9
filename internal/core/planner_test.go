package core

import (
	"testing"

	"repro/internal/index"
)

// countingStore wraps a tag's store and counts the selectivity estimates
// the planner asks of it.
type countingStore struct {
	index.Store
	counts int
}

func (c *countingStore) Count(value []byte) (int, error) {
	c.counts++
	return c.Store.Count(value)
}

func (c *countingStore) Iter(value []byte) (index.Iterator, error) {
	return index.IterFor(c.Store, value)
}

// TestPlannerCountsOnlyWithAChoice: an And estimates its positive terms
// only when it has two or more to order. A single-term query executes
// without one Count; a two-term And counts each term once; Profile still
// reports the single term's estimate, computed for the report alone.
func TestPlannerCountsOnlyWithAChoice(t *testing.T) {
	v, _ := newVolume(t, Options{})
	rare := populateTagged(t, v, 20, 4) // 20 common, 5 rare
	st, err := v.Registry().Get("UDEF")
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: st}
	v.Registry().Register(cs)
	common := Term{"UDEF", []byte("common")}
	rareT := Term{"UDEF", []byte("rare")}

	counted := func(name string, want int, run func() (int, error)) {
		t.Helper()
		cs.counts = 0
		n, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cs.counts != want {
			t.Errorf("%s: %d Count calls, want %d", name, cs.counts, want)
		}
		t.Logf("%s: %d results, %d Count calls", name, n, cs.counts)
	}
	results := func(ids []OID, err error) (int, error) { return len(ids), err }

	counted("Query(And{common})", 0, func() (int, error) { return results(v.Query(And{[]Query{common}})) })
	counted("QueryPage(And{rare}, limit 2)", 0, func() (int, error) {
		return results(v.QueryPage(And{[]Query{rareT}}, Page{Limit: 2, After: rare[0]}))
	})
	counted("Query(common ∧ ¬rare)", 0, func() (int, error) {
		return results(v.Query(And{[]Query{common, Not{rareT}}}))
	})
	counted("Query(common ∧ rare)", 2, func() (int, error) {
		ids, err := v.Query(And{[]Query{common, rareT}})
		if err == nil && len(ids) != len(rare) {
			t.Errorf("common ∧ rare = %d results, want %d", len(ids), len(rare))
		}
		return len(ids), err
	})
	counted("Profile(And{common})", 1, func() (int, error) {
		ids, steps, err := v.Profile(And{[]Query{common}}, Page{})
		if err == nil && (len(steps) != 1 || steps[0].Estimate != 20) {
			t.Errorf("profile steps = %+v, want one step estimating 20", steps)
		}
		return len(ids), err
	})
}
