package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/index"
)

func TestExplainOrdersBySelectivity(t *testing.T) {
	v, _ := newVolume(t, Options{})
	// "common" on 20 objects, "rare" on 1.
	var rare OID
	for i := 0; i < 20; i++ {
		oid := mustCreateObject(t, v, "u", "")
		if err := v.AddName(oid, "UDEF", []byte("common")); err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			rare = oid
			if err := v.AddName(oid, "UDEF", []byte("rare")); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps, err := v.Explain(And{[]Query{
		Term{"UDEF", []byte("common")},
		Term{"UDEF", []byte("rare")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %+v", steps)
	}
	if !strings.Contains(steps[0].Rendered, "rare") {
		t.Errorf("planner did not run the rare term first: %+v", steps)
	}
	if steps[0].Estimate != 1 || steps[1].Estimate != 20 {
		t.Errorf("estimates = %d, %d; want 1, 20", steps[0].Estimate, steps[1].Estimate)
	}
	// The plan and the execution agree.
	ids, err := v.Query(And{[]Query{
		Term{"UDEF", []byte("common")},
		Term{"UDEF", []byte("rare")},
	}})
	if err != nil || len(ids) != 1 || ids[0] != rare {
		t.Errorf("query = %v, %v", ids, err)
	}
}

func TestExplainNegationsLast(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "")
	_ = v.AddName(oid, "UDEF", []byte("x"))
	steps, err := v.Explain(And{[]Query{
		Not{Term{"UDEF", []byte("y")}},
		Term{"UDEF", []byte("x")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0].Negated || !steps[1].Negated {
		t.Errorf("steps = %+v; negation must come last", steps)
	}
}

func TestExplainNonAnd(t *testing.T) {
	v, _ := newVolume(t, Options{})
	steps, err := v.Explain(Term{"UDEF", []byte("solo")})
	if err != nil || len(steps) != 1 {
		t.Fatalf("steps = %+v, %v", steps, err)
	}
	if _, err := v.Explain(And{}); !errors.Is(err, ErrQuery) {
		t.Errorf("empty And explain = %v", err)
	}
}

func TestRenderQueryShapes(t *testing.T) {
	q := And{[]Query{
		Or{[]Query{Term{"A", []byte("1")}, Term{"B", []byte("2")}}},
		Not{Range{"C", []byte("lo"), []byte("hi")}},
	}}
	got := renderQuery(q)
	for _, want := range []string{"∧", "∨", "¬", `A="1"`, `C∈["lo","hi")`} {
		if !strings.Contains(got, want) {
			t.Errorf("renderQuery missing %q in %q", want, got)
		}
	}
}

func TestParseRevKeyEdges(t *testing.T) {
	// Round trip with a value containing the separator byte.
	k := revKey(7, "UDEF", []byte("a\x00b"))
	tv, err := parseRevKey(k)
	if err != nil || tv.Tag != "UDEF" {
		t.Fatalf("parse = %+v, %v", tv, err)
	}
	// The value round-trips bytewise (first NUL after tag is the split).
	if string(tv.Value) != "a\x00b" {
		t.Errorf("value = %q", tv.Value)
	}
	if _, err := parseRevKey([]byte("short")); !errors.Is(err, ErrQuery) {
		t.Errorf("short key = %v", err)
	}
	if _, err := parseRevKey(append(revPrefix(1), []byte("tagnovalue")...)); !errors.Is(err, ErrQuery) {
		t.Errorf("unterminated key = %v", err)
	}
}

func TestEstimateShapes(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "")
	for i := 0; i < 5; i++ {
		if err := v.AddName(oid, "UDEF", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// ID estimates 1; unknown tags estimate huge (run last).
	if got := v.estimate(Term{index.TagID, []byte("1")}); got != 1 {
		t.Errorf("ID estimate = %d", got)
	}
	small := v.estimate(Term{"UDEF", []byte("a")})
	if small != 1 {
		t.Errorf("UDEF estimate = %d", small)
	}
	if got := v.estimate(Term{"NOPE", []byte("x")}); got < 1<<29 {
		t.Errorf("unknown tag estimate = %d, want huge", got)
	}
	// Or sums; And takes the min.
	orEst := v.estimate(Or{[]Query{Term{"UDEF", []byte("a")}, Term{"UDEF", []byte("b")}}})
	if orEst != 2 {
		t.Errorf("Or estimate = %d", orEst)
	}
	andEst := v.estimate(And{[]Query{Term{"UDEF", []byte("a")}, Term{"NOPE", []byte("x")}}})
	if andEst != 1 {
		t.Errorf("And estimate = %d", andEst)
	}
}

// TestExtentConfigPersisted: the volume's effective MaxExtentBytes is
// recorded at mkfs and wins over whatever a later Open passes.
func TestExtentConfigPersisted(t *testing.T) {
	dev := blockdevNewMemForTest()
	v, err := Create(dev, Options{ExtentConfig: extentConfigForTest(64 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	oid := mustCreateObject(t, v, "u", "seed")
	_ = oid
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with a different (conflicting) cap; the persisted one wins.
	v2, err := Open(dev, Options{ExtentConfig: extentConfigForTest(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.opts.ExtentConfig.MaxExtentBytes; got != 64<<10 {
		t.Errorf("reopened MaxExtentBytes = %d, want persisted 64K", got)
	}
}

// TestDeleteImageTaggedObject: deleting an object whose only content tag
// is an IMAGE bitmap must clean the image index through the nil-valued
// reverse entry (regression: Signature(nil) used to fail the delete).
func TestDeleteImageTaggedObject(t *testing.T) {
	v, _ := newVolume(t, Options{})
	oid := mustCreateObject(t, v, "u", "")
	px := make([]byte, 8*8)
	for i := range px {
		px[i] = byte(i * 3)
	}
	bm, err := index.EncodeBitmap(8, 8, px)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddName(oid, index.TagImage, bm); err != nil {
		t.Fatal(err)
	}
	if err := v.DeleteObject(oid); err != nil {
		t.Fatalf("DeleteObject with image tag: %v", err)
	}
	ids, err := v.Query(Term{index.TagImage, bm})
	if err != nil || len(ids) != 0 {
		t.Errorf("image index entry survived delete: %v, %v", ids, err)
	}
	rep, err := v.Check()
	if err != nil || !rep.Ok() {
		t.Errorf("fsck after image delete: %+v, %v", rep, err)
	}
}
