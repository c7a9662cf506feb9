// Package pager is a fixture stub: pinescape recognizes the pager by the
// last element of its package path, so this stands in for the real one.
package pager

// Page is a pinned cache frame handle.
type Page struct {
	data []byte
}

// Data returns the frame contents; valid only inside With.
func (p *Page) Data() []byte { return p.data }

// Pager is the buffer cache.
type Pager struct{}

// With pins a page for the call of fn.
func (p *Pager) With(no uint64, fn func(*Page) error) error {
	return fn(&Page{data: make([]byte, 16)})
}

// WithZero pins a fresh zeroed page for the call of fn.
func (p *Pager) WithZero(no uint64, fn func(*Page) error) error {
	return fn(&Page{data: make([]byte, 16)})
}

// Acquire pins a page; banned outside the pager.
func (p *Pager) Acquire(no uint64) (*Page, error) { return &Page{data: make([]byte, 16)}, nil }

// Release unpins a page; banned outside the pager.
func (p *Pager) Release(pg *Page) {}

// MarkDirty notes a page as modified.
func (p *Pager) MarkDirty(pg *Page) {}
