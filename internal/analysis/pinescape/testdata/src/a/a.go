// Package a exercises pinescape: values derived from a page pinned by a
// With closure must not outlive the closure, and pins are taken only
// through With.
package a

import (
	"helper"
	"pager"
)

var global []byte

type holder struct{ buf []byte }

// ref mirrors the btree's pageRef idiom: a value struct wrapping the
// pinned slice, with accessor methods resolved through same-package
// facts.
type ref struct{ d []byte }

func (r ref) key(i int) []byte { return r.d[i:] }

// --- clean shapes ---

// localUse keeps everything inside the pin scope.
func localUse(p *pager.Pager) (int, error) {
	var n int
	err := p.With(1, func(pg *pager.Page) error {
		b := pg.Data()
		n = int(b[0]) + helper.Sum(b)
		return nil
	})
	return n, err
}

// copiesOut duplicates the bytes into an outer local before the pin
// drops, and returns the copy.
func copiesOut(p *pager.Pager) ([]byte, error) {
	var out []byte
	err := p.With(2, func(pg *pager.Page) error {
		out = make([]byte, len(pg.Data()))
		copy(out, pg.Data())
		return nil
	})
	return out, err
}

// stringCopy: a string conversion copies too.
func stringCopy(p *pager.Pager) (string, error) {
	var s string
	err := p.WithZero(3, func(pg *pager.Page) error {
		s = string(pg.Data()[:4])
		return nil
	})
	return s, err
}

// appendBytes copies byte elements into a caller-owned slice.
func appendBytes(p *pager.Pager, out []byte) ([]byte, error) {
	err := p.With(4, func(pg *pager.Page) error {
		out = append(out, pg.Data()...)
		return nil
	})
	return out, err
}

// nested holds two pages at once, as a split does, and marks one dirty.
func nested(p *pager.Pager) error {
	return p.With(5, func(left *pager.Page) error {
		return p.WithZero(6, func(right *pager.Page) error {
			copy(right.Data(), left.Data()[8:])
			p.MarkDirty(right)
			return nil
		})
	})
}

// --- violations ---

// storesToField parks a slice of the pinned page in a caller-visible
// struct.
func storesToField(p *pager.Pager, h *holder) error {
	return p.With(7, func(pg *pager.Page) error {
		h.buf = pg.Data()[2:6] // want "pinned page data stored to a struct field outlives the pin"
		return nil
	})
}

// storesToGlobal parks a sub-slice in a package variable.
func storesToGlobal(p *pager.Pager) error {
	return p.With(8, func(pg *pager.Page) error {
		global = pg.Data()[2:6] // want "pinned page data stored to a heap location outlives the pin"
		return nil
	})
}

// returnsOuterLocal lifts the slice out of the closure into a local of the
// enclosing function and returns it after With has unpinned the page.
func returnsOuterLocal(p *pager.Pager) ([]byte, error) {
	var view []byte
	err := p.With(9, func(pg *pager.Page) error {
		view = pg.Data()[:8]
		return nil
	})
	return view, err // want "returns data derived from page pg whose pin ends in this function"
}

// returnsPage hands the page itself out of its scope.
func returnsPage(p *pager.Pager) *pager.Page {
	var kept *pager.Page
	_ = p.With(10, func(pg *pager.Page) error {
		kept = pg
		return nil
	})
	return kept // want "returns data derived from page pg whose pin ends in this function"
}

// sendsToChannel hands the slice to a goroutine of unknowable lifetime.
func sendsToChannel(p *pager.Pager, ch chan []byte) error {
	return p.With(11, func(pg *pager.Page) error {
		ch <- pg.Data() // want "pinned page data sent to a channel escapes the pin scope"
		return nil
	})
}

// goCapture spawns a goroutine over the pinned slice.
func goCapture(p *pager.Pager) error {
	return p.With(12, func(pg *pager.Page) error {
		b := pg.Data()
		go func() {
			global = append(global, b...) // want "pinned page data captured by a goroutine outlives the pin"
		}()
		return nil
	})
}

// returnsRefKey launders the slice through the same-package ref idiom;
// the (ref).key Returns fact closes the loop.
func returnsRefKey(p *pager.Pager) ([]byte, error) {
	var k []byte
	err := p.With(13, func(pg *pager.Page) error {
		k = ref{pg.Data()}.key(2)
		return nil
	})
	return k, err // want "returns data derived from page pg whose pin ends in this function"
}

// passesToKeeper hands pinned data to a callee whose imported fact says
// it retains its argument.
func passesToKeeper(p *pager.Pager) error {
	return p.With(14, func(pg *pager.Page) error {
		helper.Keep(pg.Data()) // want "passes pinned page data to Keep, which retains its argument past the call"
		return nil
	})
}

// returnsImportedView launders the slice through an imported aliasing
// helper; the Returns fact carries the taint back.
func returnsImportedView(p *pager.Pager) []byte {
	var v []byte
	_ = p.With(15, func(pg *pager.Page) error {
		v = helper.View(pg.Data())
		return nil
	})
	return v // want "returns data derived from page pg whose pin ends in this function"
}

// handPinned takes a pin whose end is not a scope.
func handPinned(p *pager.Pager) (byte, error) {
	pg, err := p.Acquire(16) // want "call to pager Acquire outside package pager"
	if err != nil {
		return 0, err
	}
	b := pg.Data()[0]
	p.Release(pg) // want "call to pager Release outside package pager"
	return b, nil
}
