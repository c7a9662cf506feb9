package pager

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestStructureLayersHoldNoDevice: the pager is the structure layers'
// only door to the device. No non-test file of btree, extent, osd,
// fulltext or index imports blockdev, so none of them can write a block
// without the pager staging its sum — a data write that skips its record
// cannot be written there.
func TestStructureLayersHoldNoDevice(t *testing.T) {
	const banned = "repro/internal/blockdev"
	fset := token.NewFileSet()
	for _, pkg := range []string{"btree", "extent", "osd", "fulltext", "index"} {
		dir := filepath.Join("..", pkg)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, ent := range ents {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == banned {
					t.Errorf("%s imports %s: a structure layer reaches the device only through the pager", fset.Position(imp.Pos()), banned)
				}
			}
		}
		if parsed == 0 {
			t.Errorf("package %s: no source files under %s", pkg, dir)
		}
	}
}
