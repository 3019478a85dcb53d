package mxq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions, and the exported
// methods of internal packages, that may go without a caller in the
// module's non-test code, each with the reason it stays.
var surfaceAllowlist = map[string]string{
	"mxq/client.WithRYWTimeout":              "public client option: bounds how long a replica-routed read parks (Example_replication sets it)",
	"mxq/internal/difftest.ReplConfigs":      "oracle harness entry point: the difftest replication mode runs it",
	"mxq/internal/difftest.RunConcurrent":    "oracle harness entry point: the difftest concurrent mode runs it",
	"mxq/internal/difftest.RunRepl":          "oracle harness entry point: the difftest replication mode runs it",
	"mxq/internal/ordpath.Between":           "the Section 4.2 ORDPATH baseline (BenchmarkOrdpath)",
	"mxq/internal/ordpath.Decode":            "the Section 4.2 ORDPATH baseline (BenchmarkOrdpath)",
	"mxq/internal/ordpath.IsAncestor":        "the Section 4.2 ORDPATH baseline (BenchmarkOrdpath)",
	"mxq/internal/ordpath.Label.Depth":       "the Section 4.2 ORDPATH baseline's label algebra, which its tests check",
	"mxq/internal/ordpath.Label.FirstChild":  "the Section 4.2 ORDPATH baseline (BenchmarkOrdpath)",
	"mxq/internal/ordpath.Label.NextSibling": "the Section 4.2 ORDPATH baseline (BenchmarkOrdpath)",
	"mxq/internal/ordpath.Label.PrevSibling": "the Section 4.2 ORDPATH baseline's label algebra, which its tests check",
	"mxq/internal/ordpath.Root":              "the Section 4.2 ORDPATH baseline (BenchmarkOrdpath)",
	"mxq/internal/rostore.Build":             "Figure 9's read-only baseline (BenchmarkFigure9)",
	"mxq/internal/shred.Parse":               "bench/layers.go shreds its raw copy with it, and the oracles, rostore's fixtures and the load differential parse through it",
	"mxq/internal/shred.ParseFragment":       "the shredder's fragment mode, which the update tests of core, tx, staircase, xpath and naive build insert content with",
	"mxq/internal/wal.Log.Segments":          "the wal, ckpt, tx and difftest tests read each live segment's LSN range and size through it",
	"mxq/internal/wal.Log.SyncCount":         "bench/layers.go reads it for wal.syncs_per_commit",
	"mxq/internal/wal.Log.TailStats":         "bench/layers.go reads it for wal.bytes_per_commit",
	"mxq/internal/xenc.PostOf":               "the Figure 2 property post = pre + size - level, which the encoding tests check",
	"mxq/internal/xmark.RunAll":              "the Figure 9 fixture: XMark Q1-Q20 over any DocView (BenchmarkFigure9)",
}

// TestEveryExportedFunctionHasACaller is the ratchet against production
// code that only tests reach: every exported top-level function of a
// non-main package of this module (bench/, a module of its own, aside)
// must be used by some non-test file other than its declaration — through
// a selector from another package, or by name inside its own — and every
// exported method of an internal package by a selector of its name
// outside its own declaration. The files of the oracle harness
// (internal/difftest, internal/naive) are non-test files and count as
// callers. A function or method that has no such use is either deleted
// or allowlisted above with its reason.
func TestEveryExportedFunctionHasACaller(t *testing.T) {
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "bench" || p == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join("mxq", filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every exported top-level function, by import path and name, and
	// every exported method of an internal package, by import path,
	// receiver type and name.
	decls := map[string]token.Pos{}
	methods := map[string]*ast.FuncDecl{}
	for _, f := range files {
		if f.ast.Name.Name == "main" {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				decls[f.pkg+"."+fn.Name.Name] = fn.Name.Pos()
			} else if strings.HasPrefix(f.pkg, "mxq/internal/") {
				methods[f.pkg+"."+recvName(fn.Recv.List[0].Type)+"."+fn.Name.Name] = fn
			}
		}
	}

	used := map[string]bool{}
	selectors := map[string][]token.Pos{} // selector name -> where it occurs
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
				selectors[n.Sel.Name] = append(selectors[n.Sel.Name], n.Sel.Pos())
			case *ast.Ident:
				key := f.pkg + "." + n.Name
				if pos, ok := decls[key]; ok && pos != n.Pos() {
					used[key] = true
				}
			}
			return true
		})
	}

	// A method is used when a selector of its name occurs outside its
	// own declaration: by name only, so any type's method of that name
	// counts.
	for key, fn := range methods {
		decls[key] = fn.Name.Pos()
		for _, pos := range selectors[fn.Name.Name] {
			if pos < fn.Pos() || pos >= fn.End() {
				used[key] = true
				break
			}
		}
	}

	var unused []string
	for key := range decls {
		if !used[key] && surfaceAllowlist[key] == "" {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s: exported, but no non-test code calls it (delete it, or allowlist it with a reason)", key)
	}
	for key := range surfaceAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlisted %s no longer exists: drop the entry", key)
		} else if used[key] {
			t.Errorf("allowlisted %s has a caller now: drop the entry", key)
		}
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
