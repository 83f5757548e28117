package netmodel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are exported functions and methods under internal/ that
// no non-test file names but that stay on purpose, each with its
// reason. The check below also fails when a listed name gains a
// caller, so the list holds only what it must.
var keptExports = map[string]string{
	"PathLengthsFrozen":  "per-source path statistics: the baseline arm of kernels-msbfs-vs-bfs and the oracle of the engine's MS-BFS statistics in other packages' tests",
	"BetweennessSampled": "Engine.BetweennessSampled, the sampled betweenness of the E5 experiment table and the engine-pool benchmarks",
	"Hill":               "stats.Hill, the Hill tail estimate of the E1 experiment table and of the gen, econ and fit tests",
	"Copy":               "Graph.Copy, a test helper of several packages",
	"CheckInvariants":    "Graph.CheckInvariants, a test helper of several packages",
	"Refreshes":          "CoreMap.Refreshes, the k-core refresh counter the run recorder is to export",
	"Rebuilds":           "CoreMap.Rebuilds, the k-core rebuild counter the run recorder is to export",
	"NewSimScratch":      "the pooled simulation scratch the traffic harnesses reuse across runs",
	"WithSimScratch":     "the option that hands a NewSimScratch pool to a simulation",
	"TrianglesPerNode":   "cross-package test oracle: Engine.TrianglesPerNode, the held copy of the engine-owned triangle counts that the root benchmarks, FuzzTriangles and the aspolicy refresh test read",
}

// interfaceMethods are the methods of fmt.Stringer, error and
// heap.Interface, which the standard library calls through the
// interface, so no file names them at the call.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestInternalExportsHaveCallers fails when an exported top-level
// function or method under internal/ is named nowhere in the non-test
// Go files under internal/, cmd/, examples/ or bench/ except at its own
// declaration: production code is only what runs, and reference forms
// belong in _test.go oracles. A use in the declaring file counts (an
// exported method the package's other methods call is live), comments
// do not. internal/benchutil, the benchmark harness's own library, is
// exempt, and so are the standard interface methods in
// interfaceMethods. The check is by name, so a method shares its name
// with every other identifier of that name.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ name, file string }
	var decls []decl
	uses := map[string]int{} // identifier -> occurrences outside func declarations' names
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declared := map[*ast.Ident]bool{}
			for _, fd := range f.Decls {
				if fn, ok := fd.(*ast.FuncDecl); ok {
					declared[fn.Name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					uses[id.Name]++
				}
				return true
			})
			if root != "internal" || strings.HasPrefix(path, filepath.Join("internal", "benchutil")+string(filepath.Separator)) {
				return nil
			}
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || fn.Recv != nil && interfaceMethods[fn.Name.Name] {
					continue
				}
				decls = append(decls, decl{fn.Name.Name, path})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dead []string
	for _, d := range decls {
		if _, ok := keptExports[d.name]; ok {
			continue
		}
		if uses[d.name] == 0 {
			dead = append(dead, d.file+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but named by no non-test code: %s", d)
	}
	for name := range keptExports {
		found := false
		for _, d := range decls {
			found = found || d.name == name
		}
		switch {
		case !found:
			t.Errorf("keptExports names %s, which is no longer declared under internal/", name)
		case uses[name] > 0:
			t.Errorf("keptExports names %s, which a non-test file now names: drop it from the list", name)
		}
	}
}
