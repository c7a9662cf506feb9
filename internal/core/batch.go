package core

import (
	"repro/internal/extent"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/pager"
)

// Batch composes several mutations — object creation, appends, naming,
// content indexing — into one commit unit: a single per-transaction write
// set, one group-commit enqueue, one shot at a device sync (shared with
// whatever else is in the group). Every reverse-index key the batch
// names, and the forward puts of stores that support it, are buffered
// and applied as one batched multi-put per tree (one index-lock
// acquisition and one sorted descent region) when the batch commits. The
// reverse keys of a batch's fresh objects sort past every key already in
// the tree, so the multi-put appends them at its right edge and fills the
// leaves it splits (see btree's splitLeaf).
//
// A Batch is not safe for concurrent use; run independent batches from
// independent goroutines instead — their write sets build concurrently
// and only the commit enqueue serializes. Every name of a batch becomes
// visible at commit, so a query issued inside the callback does not see
// the batch's own names yet.
//
// Inside the callback, mutate the volume only through the Batch's own
// methods: the callback runs under the batch's operation bracket, and
// any Volume/OSD mutating method would open a nested bracket — nested
// brackets deadlock against a pending checkpoint (see Volume.ckptMu).
//
// A Batch keeps a copy of the bytes it writes to objects it created, so
// IndexContent indexes them without reading back what it was just given
// (see IndexContent).
//
// A Batch packs the small objects it creates: the first write to an
// empty object, when it fits half a block, goes into a slot of a block
// the batch shares among such objects, and that block is written once,
// when it is full or the batch ends (pager.Space.Slot). Two 2 KiB
// documents thus cost one data block write, not two.
type Batch struct {
	v    *Volume
	op   *pager.Op
	puts map[index.Store][]index.Put
	// stores lists puts' keys in the order the batch first named them, so
	// flush splits and allocates in the same order on every run.
	stores []index.Store
	revK   [][]byte
	// texts holds the content of each object the batch created, for as
	// long as the batch's own writes could follow it; kept sums their
	// lengths, at most maxBatchText.
	texts map[OID][]byte
	kept  int
}

// Batch runs fn, then commits everything it did as one transaction.
// Steal eviction means the batch's dirty set is bounded by the log, not
// the cache: a single batch may dirty many multiples of CachePages, the
// pager chunk-flushes and evicts as it goes (WAL-before-data), and the
// final commit just seals the chunk chain.
//
// A non-nil error from fn skips the buffered name multi-puts and rolls
// the batch back: every mutation fn applied (created and deleted
// objects, appended bytes, inserted names) is undone via its captured
// logical inverse, and the compensations commit so the whole batch is a
// no-op under replay.
//
// The lifecycle lock is held shared for the whole batch — the same
// acquisition order as every other writer (lifecycle, then checkpoint
// fence), so a concurrent Close simply waits for the batch. The flip
// side: fn must not call the Volume's naming/query methods (Find, Query,
// Names, ...) — they would re-acquire the lifecycle lock recursively,
// which deadlocks when a Close is pending. Inside fn, use the Batch's
// own methods and direct object reads (OSD.OpenObject/ReadAt).
func (v *Volume) Batch(fn func(*Batch) error) error {
	unlock, err := v.rlock()
	if err != nil {
		return err
	}
	defer unlock()
	return v.withOp(func(op *pager.Op) error {
		op.StartPacking()
		b := &Batch{v: v, op: op, puts: make(map[index.Store][]index.Put), texts: make(map[OID][]byte)}
		err := fn(b)
		if err == nil {
			err = b.flush()
		}
		if cerr := op.ClosePack(); err == nil {
			err = cerr
		}
		return err
	})
}

// flush applies the buffered index work: one multi-put of every reverse
// key the batch named, then one multi-put per tag store, in the order the
// batch first named the stores. An error here rolls the batch back, as a
// callback error does. Reverse first, for a rollback that cannot finish
// (abortOp then commits what went in): reverse-only leftovers are
// self-healing (DeleteObject strips the names its reverse entries list,
// and removing an absent forward pair is idempotent), whereas
// forward-only leftovers would be unreachable garbage that Find returns
// forever.
func (b *Batch) flush() error {
	if len(b.revK) > 0 {
		vals := make([][]byte, len(b.revK))
		if err := b.v.reverse.PutManyOp(b.op, b.revK, vals); err != nil {
			return err
		}
	}
	for _, st := range b.stores {
		if err := index.InsertAll(b.op, st, b.puts[st]); err != nil {
			return err
		}
	}
	b.puts = nil
	b.stores = nil
	b.revK = nil
	return nil
}

// CreateObject allocates a fresh regular object (mode 0644) owned by
// owner inside the batch's transaction.
func (b *Batch) CreateObject(owner string) (*osd.Object, error) {
	return b.CreateObjectMode(owner, osd.ModeRegular|0o644)
}

// CreateObjectMode is CreateObject with explicit mode bits.
func (b *Batch) CreateObjectMode(owner string, mode uint32) (*osd.Object, error) {
	obj, err := b.v.OSD.CreateObjectDeferred(b.op, owner, mode)
	if err == nil {
		b.texts[obj.OID()] = []byte{}
	}
	return obj, err
}

// Append writes p at the current end of obj inside the batch's
// transaction.
func (b *Batch) Append(obj *osd.Object, p []byte) error {
	_, err := b.AppendN(obj, p)
	return err
}

// AppendN is Append returning the object's size after the append. The
// end offset is resolved atomically with the write, so the size is
// exact even with concurrent appenders on the same OID.
func (b *Batch) AppendN(obj *osd.Object, p []byte) (uint64, error) {
	size, err := obj.AppendDeferred(b.op, p)
	b.keep(obj.OID(), size-uint64(len(p)), p, err)
	return size, err
}

// WriteAt writes p at offset off of obj inside the batch's transaction.
func (b *Batch) WriteAt(obj *osd.Object, p []byte, off uint64) error {
	err := obj.WriteAtDeferred(b.op, p, off)
	b.keep(obj.OID(), off, p, err)
	return err
}

// keep copies p, which the batch wrote at off, into the kept content of
// oid, or stops keeping it — for good — when the copy cannot follow: the
// write failed, left a hole, or would take the object past maxIndexable
// or the batch past maxBatchText.
func (b *Batch) keep(oid OID, off uint64, p []byte, err error) {
	t, ok := b.texts[oid]
	if !ok {
		return
	}
	end := off + uint64(len(p))
	grow := int(max(end, uint64(len(t)))) - len(t)
	if err != nil || off > uint64(len(t)) || end > maxIndexable || b.kept+grow > maxBatchText {
		b.kept -= len(t)
		delete(b.texts, oid)
		return
	}
	if grow > 0 {
		b.texts[oid] = append(t[:off], p...)
	} else {
		copy(t[off:], p)
	}
	b.kept += grow
}

// AddName attaches a (tag, value) name inside the batch's transaction.
// Its reverse entry is buffered and applied by flush's multi-put. So is
// the forward put, for stores with batched insertion; other stores
// (full text) insert the forward side immediately, inside the same
// transaction. A callback error skips the flush, and the rollback takes
// back whatever forward side went in, so the indexes stay symmetric.
func (b *Batch) AddName(oid OID, tag string, value []byte) error {
	st, err := b.v.registry.Get(tag)
	if err != nil {
		return err
	}
	if _, ok := st.(index.BatchInserter); ok {
		// Copy: the caller may reuse the value buffer before flush.
		c := append([]byte(nil), value...)
		if _, named := b.puts[st]; !named {
			b.stores = append(b.stores, st)
		}
		b.puts[st] = append(b.puts[st], index.Put{Value: c, OID: oid})
	} else if err := st.Insert(b.op, value, oid); err != nil {
		return err
	}
	b.revK = append(b.revK, revKey(oid, tag, reverseValue(tag, value)))
	return nil
}

// Tag is AddName with string arguments.
func (b *Batch) Tag(oid OID, tag, value string) error {
	return b.AddName(oid, tag, []byte(value))
}

// IndexContent indexes the object's bytes as full text inside the
// batch's transaction. For an object the batch created it indexes the
// content the batch kept, without a device read, as long as the pager
// shows that no other operation has mutated the object since
// (pager.Holds on extent.Key(oid): every mutation of an object claims its
// key, and the creator claims it first). Otherwise — another
// operation wrote the object, or the kept copy was dropped — it reads
// the object's bytes.
func (b *Batch) IndexContent(oid OID) error {
	text, ok := b.texts[oid]
	if !ok || !b.v.pg.Holds(extent.Key(uint64(oid)), b.op) {
		var err error
		if text, err = b.v.readObjectText(oid); err != nil {
			return err
		}
	}
	return b.AddName(oid, index.TagFulltext, text)
}
