package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/btree"
	"repro/internal/pager"
)

// KVIndex is a btree-backed multimap from attribute values to OIDs: the
// paper's "key/value store [that] suffices for simple attributes".
//
// Keys are stored as escape-encoded value bytes followed by the big-endian
// OID, so entries sort by value first and then OID — giving ordered range
// scans (dates, sizes) and duplicate values for free.
type KVIndex struct {
	tag  string
	tree *btree.Tree
}

// NewKVIndex creates a fresh KV index for tag.
func NewKVIndex(tag string, pg *pager.Pager, alloc btree.PageAllocator) (*KVIndex, error) {
	tr, err := btree.Create(pg, alloc)
	if err != nil {
		return nil, err
	}
	return &KVIndex{tag: tag, tree: tr}, nil
}

// OpenKVIndex loads a KV index from its tree header page.
func OpenKVIndex(tag string, pg *pager.Pager, alloc btree.PageAllocator, headerPno uint64) (*KVIndex, error) {
	tr, err := btree.Open(pg, alloc, headerPno)
	if err != nil {
		return nil, err
	}
	return &KVIndex{tag: tag, tree: tr}, nil
}

// HeaderPage identifies the index for reopening.
func (x *KVIndex) HeaderPage() uint64 { return x.tree.HeaderPage() }

// Tree exposes the underlying btree for volume checking.
func (x *KVIndex) Tree() *btree.Tree { return x.tree }

// Tag implements Store.
func (x *KVIndex) Tag() string { return x.tag }

// escapeValue encodes value so that the encoding of no value is a prefix
// of another's: 0x00 bytes become 0x00 0xFF, and the encoding ends with
// 0x00 0x01. Lexicographic order of encodings matches order of values.
// The result has room for the 8-byte OID suffix of an entry key.
func escapeValue(v []byte) []byte {
	out := make([]byte, 0, len(v)+2+8)
	for _, b := range v {
		if b == 0x00 {
			out = append(out, 0x00, 0xFF)
		} else {
			out = append(out, b)
		}
	}
	return append(out, 0x00, 0x01)
}

// entryKey is escape(value) + 8-byte big-endian OID.
func entryKey(value []byte, oid OID) []byte {
	k := escapeValue(value)
	var ob [8]byte
	binary.BigEndian.PutUint64(ob[:], uint64(oid))
	return append(k, ob[:]...)
}

// oidFromEntry extracts the OID from an entry key.
func oidFromEntry(k []byte) (OID, error) {
	if len(k) < 8 {
		return 0, fmt.Errorf("%w: entry key too short", ErrBadValue)
	}
	return OID(binary.BigEndian.Uint64(k[len(k)-8:])), nil
}

// DecodeEntryKey inverts entryKey, recovering the value and OID. Used by
// fsck to verify forward/reverse index agreement.
func DecodeEntryKey(k []byte) ([]byte, OID, error) {
	var value []byte
	i := 0
	for {
		if i >= len(k) {
			return nil, 0, fmt.Errorf("%w: unterminated entry key", ErrBadValue)
		}
		if k[i] != 0x00 {
			value = append(value, k[i])
			i++
			continue
		}
		if i+1 >= len(k) {
			return nil, 0, fmt.Errorf("%w: dangling escape", ErrBadValue)
		}
		switch k[i+1] {
		case 0xFF:
			value = append(value, 0x00)
			i += 2
		case 0x01:
			i += 2
			if len(k)-i != 8 {
				return nil, 0, fmt.Errorf("%w: bad OID suffix", ErrBadValue)
			}
			return value, OID(binary.BigEndian.Uint64(k[i:])), nil
		default:
			return nil, 0, fmt.Errorf("%w: bad escape byte %#x", ErrBadValue, k[i+1])
		}
	}
}

// Insert implements Store.
func (x *KVIndex) Insert(op *pager.Op, value []byte, oid OID) error {
	return x.tree.PutOp(op, entryKey(value, oid), nil)
}

// InsertMany implements BatchInserter: all pairs go through one btree
// PutMany (one tree-lock acquisition, sorted descent region).
func (x *KVIndex) InsertMany(op *pager.Op, puts []Put) error {
	if len(puts) == 0 {
		return nil
	}
	keys := make([][]byte, len(puts))
	vals := make([][]byte, len(puts))
	for i, p := range puts {
		keys[i] = entryKey(p.Value, p.OID)
	}
	return x.tree.PutManyOp(op, keys, vals)
}

// Remove implements Store. Removing an absent pair is not an error
// (naming removal is idempotent).
func (x *KVIndex) Remove(op *pager.Op, value []byte, oid OID) error {
	err := x.tree.DeleteOp(op, entryKey(value, oid))
	if errors.Is(err, btree.ErrNotFound) {
		return nil
	}
	return err
}

// Lookup implements Store.
func (x *KVIndex) Lookup(value []byte) ([]OID, error) {
	var out []OID
	var inner error
	err := x.tree.ScanPrefix(escapeValue(value), func(k, v []byte) bool {
		oid, err := oidFromEntry(k)
		if err != nil {
			inner = err
			return false
		}
		out = append(out, oid)
		return true
	})
	if inner != nil {
		return nil, inner
	}
	return out, err
}

// kvIter streams the OIDs for one value straight off a btree cursor; Seek
// jumps the cursor to the entry key (value, oid) so a selective
// intersection partner skips the posting list instead of scanning it.
type kvIter struct {
	cur *btree.Cursor
	// key is the escape-encoded value, the prefix of every entry, plus
	// eight bytes that each Seek overwrites with its target OID.
	key []byte
}

// Iter implements Iterable: a streaming, seekable posting list for value.
func (x *KVIndex) Iter(value []byte) (Iterator, error) {
	key := append(escapeValue(value), make([]byte, 8)...)
	pfx := key[:len(key)-8]
	return &kvIter{cur: x.tree.NewPrefixCursor(pfx), key: key}, nil
}

func (it *kvIter) Next() (OID, bool, error) {
	k, _, ok, err := it.cur.Next()
	if !ok || err != nil {
		return 0, false, err
	}
	oid, err := oidFromEntry(k)
	if err != nil {
		return 0, false, err
	}
	return oid, true, nil
}

func (it *kvIter) Seek(oid OID) (OID, bool, error) {
	binary.BigEndian.PutUint64(it.key[len(it.key)-8:], uint64(oid))
	it.cur.Seek(it.key)
	return it.Next()
}

// countCap bounds the work a selectivity estimate may do. The planner
// only needs the relative order of posting-list sizes, so every list
// longer than the cap estimates as "at least countCap" instead of
// walking every leaf of its posting list — otherwise estimating a broad
// term would cost a walk as long as the scan the streaming engine exists
// to avoid.
const countCap = 1024

// Count implements Store. Exact up to countCap, saturating above it; the
// tree counts by leaf arithmetic, copying no key.
func (x *KVIndex) Count(value []byte) (int, error) {
	return x.tree.CountPrefix(escapeValue(value), countCap)
}

// RangeLookup returns OIDs whose value lies in [lo, hi), ascending by
// value then OID. Implements Ranged.
func (x *KVIndex) RangeLookup(lo, hi []byte) ([]OID, error) {
	var hiKey []byte
	if hi != nil {
		hiKey = escapeValue(hi)
	}
	var out []OID
	var inner error
	err := x.tree.Scan(escapeValue(lo), hiKey, func(k, v []byte) bool {
		oid, err := oidFromEntry(k)
		if err != nil {
			inner = err
			return false
		}
		out = append(out, oid)
		return true
	})
	if inner != nil {
		return nil, inner
	}
	return out, err
}

// Len returns the number of (value, OID) pairs.
func (x *KVIndex) Len() uint64 { return x.tree.Len() }

// Sharded hash-partitions one tag across several stores, removing the
// single-lock hotspot a lone btree presents under concurrent naming
// operations — the indexing structure "with fewer hotspots" of §2.3.
type Sharded struct {
	tag    string
	shards []Store
}

// NewSharded wraps the given shards (all serving the same tag).
func NewSharded(tag string, shards []Store) *Sharded {
	return &Sharded{tag: tag, shards: shards}
}

// Tag implements Store.
func (s *Sharded) Tag() string { return s.tag }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

func (s *Sharded) pick(value []byte) Store { return s.shards[s.shardOf(value)] }

func (s *Sharded) shardOf(value []byte) int {
	h := fnv.New32a()
	h.Write(value)
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Insert implements Store.
func (s *Sharded) Insert(op *pager.Op, value []byte, oid OID) error {
	return s.pick(value).Insert(op, value, oid)
}

// Remove implements Store.
func (s *Sharded) Remove(op *pager.Op, value []byte, oid OID) error {
	return s.pick(value).Remove(op, value, oid)
}

// InsertMany implements BatchInserter: pairs are grouped by shard and each
// shard receives one batched insert, in shard order.
func (s *Sharded) InsertMany(op *pager.Op, puts []Put) error {
	groups := make([][]Put, len(s.shards))
	for _, p := range puts {
		i := s.shardOf(p.Value)
		groups[i] = append(groups[i], p)
	}
	for i, group := range groups {
		if len(group) == 0 {
			continue
		}
		if err := InsertAll(op, s.shards[i], group); err != nil {
			return err
		}
	}
	return nil
}

// Lookup implements Store.
func (s *Sharded) Lookup(value []byte) ([]OID, error) {
	return s.pick(value).Lookup(value)
}

// Count implements Store.
func (s *Sharded) Count(value []byte) (int, error) {
	return s.pick(value).Count(value)
}

// Iter implements Iterable: one value hashes to one shard, so streaming
// delegates to it.
func (s *Sharded) Iter(value []byte) (Iterator, error) {
	return IterFor(s.pick(value), value)
}

// RangeLookup consults every shard and merges (ranges cross hash
// boundaries). Implements Ranged when the shards do. Shards return OIDs
// in value-major order, so the combined list is sorted and deduplicated
// rather than k-way merged (UnionOIDs needs ascending inputs).
func (s *Sharded) RangeLookup(lo, hi []byte) ([]OID, error) {
	var all []OID
	for _, sh := range s.shards {
		r, ok := sh.(Ranged)
		if !ok {
			return nil, fmt.Errorf("index: shard for %q does not support ranges", s.tag)
		}
		l, err := r.RangeLookup(lo, hi)
		if err != nil {
			return nil, err
		}
		all = append(all, l...)
	}
	return DedupOIDs(all), nil
}
