package hfad_test

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/hfad"
)

func newStore(t *testing.T, opts hfad.Options) *hfad.Store {
	t.Helper()
	st, err := hfad.Create(hfad.NewMemDevice(1<<15), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return st
}

func TestPublicQuickstartFlow(t *testing.T) {
	st := newStore(t, hfad.Options{})
	defer st.Close()

	obj, err := st.CreateObject("margo")
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append([]byte("the quick brown fox")); err != nil {
		t.Fatal(err)
	}
	if err := st.Tag(obj.OID(), hfad.TagUDef, "notes"); err != nil {
		t.Fatal(err)
	}
	if err := st.IndexContent(obj.OID()); err != nil {
		t.Fatal(err)
	}
	ids, err := st.Find(hfad.TV(hfad.TagFulltext, "quick"), hfad.TV(hfad.TagUDef, "notes"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []hfad.OID{obj.OID()}) {
		t.Errorf("Find = %v", ids)
	}
	// FastPath by ID tag.
	oid, err := st.FindOne(hfad.TV(hfad.TagID, "1"))
	if err != nil || oid != obj.OID() {
		t.Errorf("FindOne(ID) = %v, %v", oid, err)
	}
}

func TestInsertTruncateThroughPublicAPI(t *testing.T) {
	st := newStore(t, hfad.Options{})
	defer st.Close()
	obj, err := st.CreateObject("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := obj.InsertAt(5, []byte(" there,")); err != nil {
		t.Fatal(err)
	}
	if err := obj.TruncateRange(0, 6); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, obj.Size())
	if _, err := obj.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(buf) != "there, world" {
		t.Errorf("content = %q", buf)
	}
}

func TestPosixViewAndTagsCoexist(t *testing.T) {
	st := newStore(t, hfad.Options{})
	defer st.Close()
	pfs, err := st.POSIX()
	if err != nil {
		t.Fatal(err)
	}
	if err := pfs.MkdirAll("/music/jazz", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := pfs.WriteFile("/music/jazz/take5.flac", []byte("audio bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := pfs.Stat("/music/jazz/take5.flac")
	if err != nil {
		t.Fatal(err)
	}
	// Tag the same object and find it both ways.
	if err := st.Tag(m.OID, hfad.TagUDef, "genre:jazz"); err != nil {
		t.Fatal(err)
	}
	byTag, err := st.Find(hfad.TV(hfad.TagUDef, "genre:jazz"))
	if err != nil || len(byTag) != 1 || byTag[0] != m.OID {
		t.Errorf("by tag = %v, %v", byTag, err)
	}
	byPath, err := st.Find(hfad.TV(hfad.TagPOSIX, "/music/jazz/take5.flac"))
	if err != nil || len(byPath) != 1 || byPath[0] != m.OID {
		t.Errorf("by path = %v, %v", byPath, err)
	}
}

func TestQueryTreePublic(t *testing.T) {
	st := newStore(t, hfad.Options{})
	defer st.Close()
	a, _ := st.CreateObject("u")
	b, _ := st.CreateObject("u")
	_ = st.Tag(a.OID(), hfad.TagUDef, "x")
	_ = st.Tag(a.OID(), hfad.TagUDef, "y")
	_ = st.Tag(b.OID(), hfad.TagUDef, "x")
	ids, err := st.Query(hfad.And{Kids: []hfad.Query{
		hfad.Term{Tag: hfad.TagUDef, Value: []byte("x")},
		hfad.Not{Kid: hfad.Term{Tag: hfad.TagUDef, Value: []byte("y")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []hfad.OID{b.OID()}) {
		t.Errorf("query = %v", ids)
	}
}

func TestSearchRefinementPublic(t *testing.T) {
	st := newStore(t, hfad.Options{})
	defer st.Close()
	obj, _ := st.CreateObject("u")
	_ = st.Tag(obj.OID(), hfad.TagUDef, "k")
	s := st.NewSearch().Refine(hfad.Term{Tag: hfad.TagUDef, Value: []byte("k")})
	ids, err := s.Results()
	if err != nil || len(ids) != 1 {
		t.Errorf("refined = %v, %v", ids, err)
	}
}

func TestPersistencePublic(t *testing.T) {
	dev := hfad.NewMemDevice(1 << 15)
	st, err := hfad.Create(dev, hfad.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := st.CreateObject("u")
	_ = obj.Append([]byte("persisted"))
	oid := obj.OID()
	_ = st.Tag(oid, hfad.TagUser, "u")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := hfad.Open(dev, hfad.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ids, err := st2.Find(hfad.TV(hfad.TagUser, "u"))
	if err != nil || len(ids) != 1 || ids[0] != oid {
		t.Errorf("reopened Find = %v, %v", ids, err)
	}
	rep, err := st2.Check()
	if err != nil || !rep.Ok() {
		t.Errorf("fsck = %+v, %v", rep, err)
	}
}

func TestUntagAndDelete(t *testing.T) {
	st := newStore(t, hfad.Options{})
	defer st.Close()
	obj, _ := st.CreateObject("u")
	_ = st.Tag(obj.OID(), hfad.TagUDef, "temp")
	if err := st.Untag(obj.OID(), hfad.TagUDef, "temp"); err != nil {
		t.Fatal(err)
	}
	ids, _ := st.Find(hfad.TV(hfad.TagUDef, "temp"))
	if len(ids) != 0 {
		t.Errorf("after untag = %v", ids)
	}
	if err := st.DeleteObject(obj.OID()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Stat(obj.OID()); err == nil {
		t.Error("object survived delete")
	}
}

func TestLazyIndexingPublic(t *testing.T) {
	st := newStore(t, hfad.Options{})
	defer st.Close()
	obj, _ := st.CreateObject("u")
	_ = obj.Append([]byte("asynchronous postings"))
	st.StartLazyIndexing(16)
	if err := st.IndexContentLazy(obj.OID()); err != nil {
		t.Fatal(err)
	}
	st.WaitIndexIdle()
	ids, err := st.Find(hfad.TV(hfad.TagFulltext, "asynchronous"))
	if err != nil || len(ids) != 1 {
		t.Errorf("lazy find = %v, %v", ids, err)
	}
}

func TestOpenGarbageFails(t *testing.T) {
	if _, err := hfad.Open(hfad.NewMemDevice(256), hfad.Options{}); err == nil {
		t.Error("Open on blank device should fail")
	}
	var errNil error
	if !errors.Is(errNil, nil) {
		t.Error("sanity")
	}
}

// TestPaginationAndProfilePublic covers the streaming-engine surface:
// QueryPage / FindPage bounded results and Profile's executed plan.
func TestPaginationAndProfilePublic(t *testing.T) {
	st := newStore(t, hfad.Options{})
	defer st.Close()
	var all []hfad.OID
	for i := 0; i < 25; i++ {
		obj, err := st.CreateObject("u")
		if err != nil {
			t.Fatal(err)
		}
		oid := obj.OID()
		obj.Close()
		if err := st.Tag(oid, hfad.TagUDef, "bulk"); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := st.Tag(oid, hfad.TagUDef, "pick"); err != nil {
				t.Fatal(err)
			}
		}
		all = append(all, oid)
	}
	term := hfad.Term{Tag: hfad.TagUDef, Value: []byte("bulk")}

	// Page through everything with Limit/After.
	var walked []hfad.OID
	var after hfad.OID
	for {
		page, err := st.QueryPage(term, hfad.Page{Limit: 8, After: after})
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		walked = append(walked, page...)
		after = page[len(page)-1]
	}
	if !reflect.DeepEqual(walked, all) {
		t.Errorf("paged walk = %v, want %v", walked, all)
	}

	// FindPage bounds a naming-vector conjunction.
	page, err := st.FindPage(hfad.Page{Limit: 2}, hfad.TV(hfad.TagUDef, "bulk"), hfad.TV(hfad.TagUDef, "pick"))
	if err != nil || len(page) != 2 {
		t.Fatalf("FindPage = %v, %v", page, err)
	}

	// Profile reports the executed plan: the selective term drives, the
	// broad one is seeked.
	ids, steps, err := st.Profile(hfad.And{Kids: []hfad.Query{
		term,
		hfad.Term{Tag: hfad.TagUDef, Value: []byte("pick")},
	}}, hfad.Page{})
	if err != nil || len(ids) != 5 {
		t.Fatalf("Profile = %v, %v", ids, err)
	}
	if len(steps) != 2 || steps[0].Estimate > steps[1].Estimate {
		t.Errorf("plan not in selectivity order: %+v", steps)
	}
	if steps[1].Seeks == 0 {
		t.Errorf("broad term was not seeked: %+v", steps[1])
	}
}

func TestBatchPublicAPI(t *testing.T) {
	st, err := hfad.Create(hfad.NewMemDevice(1<<13), hfad.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var oids []hfad.OID
	err = st.Batch(func(b *hfad.Batch) error {
		for i := 0; i < 8; i++ {
			obj, err := b.CreateObject("bulk")
			if err != nil {
				return err
			}
			if err := b.Append(obj, []byte(fmt.Sprintf("bulk doc %d marker%d", i, i))); err != nil {
				return err
			}
			if err := b.Tag(obj.OID(), hfad.TagUDef, "bulk"); err != nil {
				return err
			}
			if err := b.IndexContent(obj.OID()); err != nil {
				return err
			}
			oids = append(oids, obj.OID())
			obj.Close()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	ids, err := st.Find(hfad.TV(hfad.TagUDef, "bulk"))
	if err != nil || len(ids) != 8 {
		t.Fatalf("Find = %v, %v", ids, err)
	}
	ids, err = st.Find(hfad.TV(hfad.TagFulltext, "marker5"), hfad.TV(hfad.TagUDef, "bulk"))
	if err != nil || len(ids) != 1 || ids[0] != oids[5] {
		t.Fatalf("conjunction = %v, %v", ids, err)
	}
	// Objects created in a batch read back through the normal path.
	obj, err := st.OpenObject(oids[2])
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	buf := make([]byte, 10)
	if _, err := obj.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(buf[:4]) != "bulk" {
		t.Errorf("batch-created object content = %q", buf)
	}
}
