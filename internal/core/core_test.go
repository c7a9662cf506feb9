package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extent"
	"repro/internal/index"
	"repro/internal/osd"
	"repro/internal/pager"
)

func newVolume(t *testing.T, opts Options) (*Volume, *blockdev.MemDevice) {
	t.Helper()
	dev := blockdev.NewMem(32768, blockdev.DefaultBlockSize) // 128 MiB
	v, err := Create(dev, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return v, dev
}

func mustCreateObject(t *testing.T, v *Volume, owner string, content string) OID {
	t.Helper()
	obj, err := v.OSD.CreateObject(owner, osd.ModeRegular|0o644)
	if err != nil {
		t.Fatalf("CreateObject: %v", err)
	}
	defer obj.Close()
	if content != "" {
		if err := obj.WriteAt([]byte(content), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}
	return obj.OID()
}

func TestCreateAndReopenVolume(t *testing.T) {
	v, dev := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "margo", "volume contents")
	if err := v.AddName(oid, index.TagUser, []byte("margo")); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	v2, err := Open(dev, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ids, err := v2.Resolve(TV(index.TagUser, "margo"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []OID{oid}) {
		t.Errorf("Resolve after reopen = %v, want [%d]", ids, oid)
	}
	obj, err := v2.OSD.OpenObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 15)
	if _, err := obj.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(got) != "volume contents" {
		t.Errorf("content = %q", got)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dev := blockdev.NewMem(1024, blockdev.DefaultBlockSize)
	if _, err := Open(dev, Options{}); !errors.Is(err, ErrBadSuperblock) {
		t.Errorf("Open(blank) = %v, want ErrBadSuperblock", err)
	}
}

func TestCreateTooSmall(t *testing.T) {
	dev := blockdev.NewMem(32, blockdev.DefaultBlockSize)
	if _, err := Create(dev, Options{}); !errors.Is(err, ErrTooSmall) {
		t.Errorf("Create(tiny) = %v, want ErrTooSmall", err)
	}
}

func TestNamingAndResolve(t *testing.T) {
	v, _ := newVolume(t, Options{})
	photo1 := mustCreateObject(t, v, "margo", "photo one bytes")
	photo2 := mustCreateObject(t, v, "margo", "photo two bytes")

	for oid, tags := range map[OID][]TagValue{
		photo1: {TV("USER", "margo"), TV("UDEF", "person:nick"), TV("UDEF", "place:boston")},
		photo2: {TV("USER", "margo"), TV("UDEF", "person:nick"), TV("UDEF", "place:seattle")},
	} {
		for _, tv := range tags {
			if err := v.AddName(oid, tv.Tag, tv.Value); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Single-term resolve returns both.
	ids, err := v.Resolve(TV("UDEF", "person:nick"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Errorf("person:nick = %v", ids)
	}
	// Conjunction narrows ("the conjunction of the results of an index
	// lookup for each element in the vector").
	ids, err = v.Resolve(TV("UDEF", "person:nick"), TV("UDEF", "place:boston"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []OID{photo1}) {
		t.Errorf("conjunction = %v, want [%d]", ids, photo1)
	}
	// Empty vector is invalid.
	if _, err := v.Resolve(); !errors.Is(err, ErrQuery) {
		t.Errorf("empty resolve = %v", err)
	}
	// Unknown tag.
	if _, err := v.Resolve(TV("BOGUS", "x")); !errors.Is(err, index.ErrUnknownTag) {
		t.Errorf("bogus tag = %v", err)
	}
}

func TestFastPathIDTag(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "app", "fastpath")
	ids, err := v.Resolve(TagValue{index.TagID, []byte(fmt.Sprintf("%d", oid))})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []OID{oid}) {
		t.Errorf("ID resolve = %v", ids)
	}
	// Nonexistent ID: empty, not error.
	ids, err = v.Resolve(TV(index.TagID, "999999"))
	if err != nil || len(ids) != 0 {
		t.Errorf("missing ID = %v, %v", ids, err)
	}
	// Malformed ID value.
	if _, err := v.Resolve(TV(index.TagID, "not-a-number")); !errors.Is(err, ErrQuery) {
		t.Errorf("bad ID = %v", err)
	}
}

func TestRemoveNameAndNames(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "data")
	if err := v.AddName(oid, "USER", []byte("u")); err != nil {
		t.Fatal(err)
	}
	if err := v.AddName(oid, "UDEF", []byte("tag1")); err != nil {
		t.Fatal(err)
	}
	names, err := v.Names(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Errorf("Names = %v", names)
	}
	if err := v.RemoveName(oid, "UDEF", []byte("tag1")); err != nil {
		t.Fatal(err)
	}
	ids, _ := v.Resolve(TV("UDEF", "tag1"))
	if len(ids) != 0 {
		t.Errorf("after remove = %v", ids)
	}
	names, _ = v.Names(oid)
	if len(names) != 1 {
		t.Errorf("Names after remove = %v", names)
	}
}

func TestDeleteObjectCleansAllIndexes(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "doomed object text")
	if err := v.AddName(oid, "USER", []byte("u")); err != nil {
		t.Fatal(err)
	}
	if err := v.AddName(oid, "FULLTEXT", []byte("doomed object text")); err != nil {
		t.Fatal(err)
	}
	if err := v.DeleteObject(oid); err != nil {
		t.Fatal(err)
	}
	ids, _ := v.Resolve(TV("USER", "u"))
	if len(ids) != 0 {
		t.Errorf("USER index survived delete: %v", ids)
	}
	ids, _ = v.Resolve(TV("FULLTEXT", "doomed"))
	if len(ids) != 0 {
		t.Errorf("FULLTEXT index survived delete: %v", ids)
	}
	if _, err := v.OSD.Stat(oid); !errors.Is(err, osd.ErrNotFound) {
		t.Error("object survived delete")
	}
	rep, err := v.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Errorf("fsck after delete: %v", rep.Problems)
	}
}

func TestBooleanQueries(t *testing.T) {
	v, _ := newVolume(t, Options{})
	a := mustCreateObject(t, v, "u", "")
	b := mustCreateObject(t, v, "u", "")
	c := mustCreateObject(t, v, "u", "")
	add := func(oid OID, vals ...string) {
		for _, val := range vals {
			if err := v.AddName(oid, "UDEF", []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(a, "color:red", "shape:circle")
	add(b, "color:red", "shape:square")
	add(c, "color:blue", "shape:circle")

	// Or.
	ids, err := v.Query(Or{[]Query{Term{"UDEF", []byte("color:blue")}, Term{"UDEF", []byte("shape:square")}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []OID{b, c}) {
		t.Errorf("Or = %v, want [%d %d]", ids, b, c)
	}
	// And with Not.
	ids, err = v.Query(And{[]Query{
		Term{"UDEF", []byte("color:red")},
		Not{Term{"UDEF", []byte("shape:square")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []OID{a}) {
		t.Errorf("And-Not = %v, want [%d]", ids, a)
	}
	// Nested.
	ids, err = v.Query(And{[]Query{
		Or{[]Query{Term{"UDEF", []byte("color:red")}, Term{"UDEF", []byte("color:blue")}}},
		Term{"UDEF", []byte("shape:circle")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []OID{a, c}) {
		t.Errorf("nested = %v, want [%d %d]", ids, a, c)
	}
	// Invalid shapes.
	if _, err := v.Query(Not{Term{"UDEF", []byte("x")}}); !errors.Is(err, ErrQuery) {
		t.Errorf("bare Not = %v", err)
	}
	if _, err := v.Query(And{[]Query{Not{Term{"UDEF", []byte("x")}}}}); !errors.Is(err, ErrQuery) {
		t.Errorf("only-Not And = %v", err)
	}
	if _, err := v.Query(Or{nil}); !errors.Is(err, ErrQuery) {
		t.Errorf("empty Or = %v", err)
	}
}

func TestRangeQuery(t *testing.T) {
	v, _ := newVolume(t, Options{})
	var oids []OID
	for i := 0; i < 5; i++ {
		oid := mustCreateObject(t, v, "u", "")
		date := fmt.Sprintf("date:2009-0%d-01", i+1)
		if err := v.AddName(oid, "UDEF", []byte(date)); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	ids, err := v.Query(Range{"UDEF", []byte("date:2009-02"), []byte("date:2009-05")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []OID{oids[1], oids[2], oids[3]}) {
		t.Errorf("range = %v", ids)
	}
	// Fulltext store doesn't support ranges.
	if _, err := v.Query(Range{"FULLTEXT", []byte("a"), []byte("b")}); !errors.Is(err, ErrQuery) {
		t.Errorf("fulltext range = %v", err)
	}
}

func TestSearchRefinement(t *testing.T) {
	v, _ := newVolume(t, Options{})
	a := mustCreateObject(t, v, "u", "")
	b := mustCreateObject(t, v, "u", "")
	for _, x := range []struct {
		oid  OID
		tags []string
	}{{a, []string{"type:photo", "year:2008"}}, {b, []string{"type:photo", "year:2009"}}} {
		for _, tag := range x.tags {
			if err := v.AddName(x.oid, "UDEF", []byte(tag)); err != nil {
				t.Fatal(err)
			}
		}
	}
	root := v.NewSearch()
	if _, err := root.Results(); !errors.Is(err, ErrQuery) {
		t.Errorf("root Results = %v", err)
	}
	s1 := root.Refine(Term{"UDEF", []byte("type:photo")})
	ids, err := s1.Results()
	if err != nil || len(ids) != 2 {
		t.Fatalf("level1 = %v, %v", ids, err)
	}
	s2 := s1.Refine(Term{"UDEF", []byte("year:2009")})
	ids, err = s2.Results()
	if err != nil || !reflect.DeepEqual(ids, []OID{b}) {
		t.Fatalf("level2 = %v, %v", ids, err)
	}
	if s2.Depth() != 2 {
		t.Errorf("Depth = %d", s2.Depth())
	}
	back := s2.Back()
	ids, _ = back.Results()
	if len(ids) != 2 {
		t.Errorf("after Back = %v", ids)
	}
	if root.Back() != root {
		t.Error("Back at root should be stable")
	}
}

func TestContentIndexing(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "the quick brown fox jumps")
	if err := v.IndexContent(oid); err != nil {
		t.Fatal(err)
	}
	ids, err := v.Resolve(TV("FULLTEXT", "quick"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []OID{oid}) {
		t.Errorf("content search = %v", ids)
	}
}

func TestLazyContentIndexing(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "deferred gratification document")
	if err := v.IndexContentLazy(oid); err == nil {
		t.Fatal("lazy indexing should fail before StartLazyIndexing")
	}
	v.StartLazyIndexing(64)
	if err := v.IndexContentLazy(oid); err != nil {
		t.Fatal(err)
	}
	v.WaitIndexIdle()
	ids, err := v.Resolve(TV("FULLTEXT", "gratification"))
	if err != nil || !reflect.DeepEqual(ids, []OID{oid}) {
		t.Errorf("lazy search = %v, %v", ids, err)
	}
}

func TestMultipleNamesOneObject(t *testing.T) {
	// §2.2: "a single piece of data may belong to multiple collections".
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "one datum, many names")
	names := []TagValue{
		TV("UDEF", "outfit:work"),
		TV("UDEF", "outfit:party"),
		TV("USER", "margo"),
		TV("APP", "photoapp"),
	}
	for _, tv := range names {
		if err := v.AddName(oid, tv.Tag, tv.Value); err != nil {
			t.Fatal(err)
		}
	}
	for _, tv := range names {
		ids, err := v.Resolve(tv)
		if err != nil || !reflect.DeepEqual(ids, []OID{oid}) {
			t.Errorf("Resolve(%s=%s) = %v, %v", tv.Tag, tv.Value, ids, err)
		}
	}
	got, err := v.Names(oid)
	if err != nil || len(got) != 4 {
		t.Errorf("Names = %v, %v", got, err)
	}
}

func TestFsckCleanVolume(t *testing.T) {
	v, _ := newVolume(t, Options{})
	for i := 0; i < 20; i++ {
		oid := mustCreateObject(t, v, "u", fmt.Sprintf("object %d content", i))
		if err := v.AddName(oid, "UDEF", []byte(fmt.Sprintf("n:%d", i%4))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := v.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Errorf("fsck problems: %v", rep.Problems)
	}
	if rep.Objects != 20 {
		t.Errorf("fsck objects = %d", rep.Objects)
	}
	if rep.UsedSectors == 0 || rep.FreeSectors == 0 {
		t.Errorf("fsck sector counts: used=%d free=%d", rep.UsedSectors, rep.FreeSectors)
	}
}

// TestVolumeWALBasics: operations commit through the log, and a volume
// reopened with default options keeps the log region it was created with
// — writing the default size back into the superblock would let the next
// open run its log over the snapshot slots that follow the region.
func TestVolumeWALBasics(t *testing.T) {
	v, dev := newVolume(t, Options{WALBlocks: 128})
	oid := mustCreateObject(t, v, "u", "logged data")
	if err := v.AddName(oid, "USER", []byte("u")); err != nil {
		t.Fatal(err)
	}
	if v.WAL().Stats().Commits == 0 {
		t.Error("no commits recorded")
	}
	logCap := v.WAL().Capacity()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	for reopen := 1; reopen <= 2; reopen++ {
		v2, err := Open(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := v2.WAL().Capacity(); got != logCap {
			t.Fatalf("reopen %d: log capacity %d, created with %d", reopen, got, logCap)
		}
		ids, err := v2.Resolve(TV("USER", "u"))
		if err != nil || !reflect.DeepEqual(ids, []OID{oid}) {
			t.Errorf("reopen %d = %v, %v", reopen, ids, err)
		}
		if err := v2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRefusesVolumeWithoutLog: every volume has a log region, and
// its superblock says so; Open refuses one that does not rather than run
// it unlogged.
func TestOpenRefusesVolumeWithoutLog(t *testing.T) {
	v, dev := newVolume(t, Options{})
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(0, b); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[12:], binary.LittleEndian.Uint32(b[12:])&^flagLogged)
	binary.LittleEndian.PutUint32(b[96:], crc32.ChecksumIEEE(b[:96]))
	if err := dev.WriteBlock(0, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev, Options{}); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("Open of a volume without a log region: %v, want ErrBadSuperblock", err)
	}
}

// TestOpenRefusesV2Superblock: a version 2 volume names each object's
// extent tree by a header page, which this format no longer has; Open
// refuses it rather than misread its object table.
func TestOpenRefusesV2Superblock(t *testing.T) { refuseVersion(t, 2) }

// TestOpenRefusesV3Superblock: a version 3 volume keeps each extent
// root in a page the object's row names by number, where this format's
// row holds the root itself; Open refuses it.
func TestOpenRefusesV3Superblock(t *testing.T) { refuseVersion(t, 3) }

// TestOpenRefusesV4Superblock: a version 4 volume's log may hold extent
// opcode 11 and btree opcode 1 records, which this format's replay no
// longer reads; Open refuses it rather than fail mid-replay.
func TestOpenRefusesV4Superblock(t *testing.T) { refuseVersion(t, 4) }

// TestOpenRefusesV5Superblock: a version 5 volume's log holds records
// with 33-byte headers, not frames; Open refuses it rather than read its
// log as an empty one.
func TestOpenRefusesV5Superblock(t *testing.T) { refuseVersion(t, 5) }

// TestOpenRefusesV6Superblock: a version 6 volume's full-text segments
// code each posting as a docID gap and a frequency, which this format's
// decoder would misread as gaps flagged with a frequency of one; Open
// refuses it rather than answer searches wrongly.
func TestOpenRefusesV6Superblock(t *testing.T) { refuseVersion(t, 6) }

// TestOpenRefusesV7Superblock: a version 7 volume's allocator snapshot
// and log records count blocks, where this format's count sectors, and
// its extent cells and full-text manifest values are in the older
// layouts; Open refuses it rather than misread its free space.
func TestOpenRefusesV7Superblock(t *testing.T) { refuseVersion(t, 7) }

// TestOpenRefusesWAL1Log: a log region whose header carries the magic of
// the record-per-header format ("WAL1") is refused with ErrBadSuperblock
// even under a current superblock. Create still formats over one.
func TestOpenRefusesWAL1Log(t *testing.T) {
	v, dev := newVolume(t, Options{})
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(1, b); err != nil { // the log's header block
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[0:], 0x57414C31)
	if err := dev.WriteBlock(1, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev, Options{}); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("Open of a WAL1 log: %v, want ErrBadSuperblock", err)
	}
	v2, err := Create(dev, Options{})
	if err != nil {
		t.Fatalf("Create over a WAL1 log: %v", err)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
}

// refuseVersion stamps a fresh volume's superblock with version ver and
// requires Open to refuse it.
func refuseVersion(t *testing.T, ver uint32) {
	v, dev := newVolume(t, Options{})
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(0, b); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[4:], ver)
	binary.LittleEndian.PutUint32(b[96:], crc32.ChecksumIEEE(b[:96]))
	if err := dev.WriteBlock(0, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev, Options{}); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("Open of a version %d volume: %v, want ErrBadSuperblock", ver, err)
	}
}

// TestCheckCountsExtentPages: fsck reports the extent-tree node pages
// below the rows of all objects. A small object's root lives in its row,
// so small objects have none until a root pushes its cells down.
func TestCheckCountsExtentPages(t *testing.T) {
	v, _ := newVolume(t, Options{ExtentConfig: extent.Config{MaxExtentBytes: 4096}})
	defer v.Close()
	for i := 0; i < 5; i++ {
		mustCreateObject(t, v, "u", fmt.Sprintf("small %d", i))
	}
	check := func() *CheckReport {
		t.Helper()
		rep, err := v.Check()
		if err != nil || !rep.Ok() {
			t.Fatalf("fsck: %v %v", err, rep.Problems)
		}
		return rep
	}
	if rep := check(); rep.Objects != 5 || rep.ExtentPages != 0 {
		t.Fatalf("%d objects on %d extent pages, want 5 on 0", rep.Objects, rep.ExtentPages)
	}
	obj, err := v.OSD.CreateObject("u", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	for i := 0; i < 300; i++ { // past one leaf's 254 extents
		if err := obj.Append(make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := obj.ExtentTree().Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep := check(); res.Pages < 2 || rep.ExtentPages != res.Pages {
		t.Fatalf("%d extent pages with a %d-page tree, want %d", rep.ExtentPages, res.Pages, res.Pages)
	}
}

// TestCrashRecoveryDirtyOpen simulates a crash (no Close) after Sync:
// what Sync made durable survives the dirty reopen, fsck passes, and the
// recovered volume takes new work.
func TestCrashRecoveryDirtyOpen(t *testing.T) {
	v, dev := newVolume(t, Options{})
	for i := 0; i < 10; i++ {
		oid := mustCreateObject(t, v, "u", fmt.Sprintf("pre-crash %d", i))
		if err := v.AddName(oid, "UDEF", []byte("k:v")); err != nil {
			t.Fatal(err)
		}
	}
	// Flush caches but do NOT Close: the clean flag stays unset.
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}

	v2, err := Open(dev, Options{})
	if err != nil {
		t.Fatalf("dirty Open: %v", err)
	}
	assertRecoveryExact(t, v2)
	rep, err := v2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Errorf("fsck after dirty open: %v", rep.Problems)
	}
	if rep.Objects != 10 {
		t.Errorf("objects after recovery = %d", rep.Objects)
	}
	// Volume still fully usable.
	oid := mustCreateObject(t, v2, "u", "post-crash")
	if err := v2.AddName(oid, "UDEF", []byte("post")); err != nil {
		t.Fatal(err)
	}
	rep, _ = v2.Check()
	if !rep.Ok() {
		t.Errorf("fsck after post-crash writes: %v", rep.Problems)
	}
}

// TestCrashRecoveryWAL injects a device fault mid-operation on a
// volume, then recovers from the surviving image.
func TestCrashRecoveryWAL(t *testing.T) {
	mem := blockdev.NewMem(32768, blockdev.DefaultBlockSize)
	fd := blockdev.NewFault(mem)
	v, err := Create(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Committed pre-crash state.
	oid := mustCreateObject(t, v, "u", "committed before crash")
	if err := v.AddName(oid, "USER", []byte("u")); err != nil {
		t.Fatal(err)
	}

	// Inject a fault soon: some operation's commit will fail partway.
	fd.FailAfterWrites(10)
	for i := 0; i < 50; i++ {
		obj, err := v.OSD.CreateObject("u", osd.ModeRegular)
		if err != nil {
			break // the fault fired
		}
		if err := obj.WriteAt([]byte(fmt.Sprintf("doomed %d", i)), 0); err != nil {
			break
		}
		obj.Close()
	}
	if !fd.Tripped() {
		t.Fatal("fault never fired")
	}

	// "Reboot": reopen from the raw memory device.
	v2, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	rep, err := v2.Check()
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Ok() {
		t.Errorf("fsck after WAL recovery: %v", rep.Problems)
	}
	// The committed pre-crash object must be intact.
	ids, err := v2.Resolve(TV("USER", "u"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range ids {
		if id == oid {
			found = true
		}
	}
	if !found {
		t.Error("committed pre-crash object lost")
	}
	// The volume must accept new work.
	if _, err := v2.OSD.CreateObject("u", osd.ModeRegular); err != nil {
		t.Fatalf("post-recovery create: %v", err)
	}
}

func TestImagePluginThroughVolume(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "")
	px := make([]byte, 16*16)
	for i := range px {
		px[i] = byte(i)
	}
	bm, err := index.EncodeBitmap(16, 16, px)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddName(oid, index.TagImage, bm); err != nil {
		t.Fatal(err)
	}
	ids, err := v.Resolve(TagValue{index.TagImage, bm})
	if err != nil || !reflect.DeepEqual(ids, []OID{oid}) {
		t.Errorf("image resolve = %v, %v", ids, err)
	}
}

func TestObjectDataIntact(t *testing.T) {
	v, dev := newVolume(t, Options{})
	content := bytes.Repeat([]byte("hFAD!"), 40000) // 200 KB
	obj, err := v.OSD.CreateObject("u", osd.ModeRegular)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := obj.InsertAt(1000, []byte("INSERTED")); err != nil {
		t.Fatal(err)
	}
	oid := obj.OID()
	obj.Close()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj2, err := v2.OSD.OpenObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content)+8)
	if _, err := obj2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	want := append(append(append([]byte{}, content[:1000]...), []byte("INSERTED")...), content[1000:]...)
	if !bytes.Equal(got, want) {
		t.Fatal("data mismatch after reopen")
	}
}

// TestCheckNamesNamingMismatches plants one naming defect in each
// direction inside a 1 000-OID posting list: a reverse entry whose
// forward entry is gone, and a forward entry whose reverse entry is gone.
// Check must name each one, and nothing else.
func TestCheckNamesNamingMismatches(t *testing.T) {
	v, _ := newVolume(t, Options{IndexShards: 1})
	defer v.Close()
	const n = 1000
	oids := make([]OID, 0, n)
	err := v.Batch(func(b *Batch) error {
		for i := 0; i < n; i++ {
			obj, err := b.CreateObject("all")
			if err != nil {
				return err
			}
			oids = append(oids, obj.OID())
			obj.Close()
			if err := b.Tag(obj.OID(), index.TagUDef, "all"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := v.Check(); err != nil || !rep.Ok() {
		t.Fatalf("check before planting: %v %v", rep, err)
	}

	value := []byte("all")
	noForward, noReverse := oids[n/3], oids[2*n/3]
	st, err := v.registry.Get(index.TagUDef)
	if err != nil {
		t.Fatal(err)
	}
	err = v.withOp(func(op *pager.Op) error {
		if err := st.Remove(op, value, noForward); err != nil {
			return err
		}
		return v.reverse.DeleteOp(op, revKey(noReverse, index.TagUDef, reverseValue(index.TagUDef, value)))
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := v.Check()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("reverse entry (%d, %s=%q): no forward entry", noForward, index.TagUDef, value),
		fmt.Sprintf("forward entry (oid %d, value %q): no reverse entry", noReverse, value),
	}
	if !reflect.DeepEqual(rep.Problems, want) {
		t.Fatalf("problems = %q, want %q", rep.Problems, want)
	}
}

// Test helpers shared with explain_test.go.
func blockdevNewMemForTest() *blockdev.MemDevice {
	return blockdev.NewMem(32768, blockdev.DefaultBlockSize)
}

func extentConfigForTest(max uint32) extent.Config {
	return extent.Config{MaxExtentBytes: max}
}
