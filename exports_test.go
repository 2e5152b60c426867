package netdrift_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported functions under internal/ that no program
// calls but a test needs, keyed "pkg.Func", with the test that needs it.
var exportAllowlist = map[string]string{
	"causal.CorrMatrix":          "TestPartialCorrWorkspaceGolden: builds the correlation matrix the reference PartialCorr reads",
	"causal.NewCITester":         "TestCITester and the PValue memo/workspace tests: builds a tester from rows",
	"causal.PartialCorr":         "TestPartialCorrWorkspaceGolden: the allocating reference the workspace path must match bit for bit",
	"dataset.ReadCSV":            "TestCSVRoundTrip: reads back what WriteCSV (cmd/datagen) writes",
	"mat.Add":                    "TestCovariancePSDProperty: adds the ridge before the Cholesky check",
	"mat.Equal":                  "TestMul, TestSolve, TestInverse and the other mat tests: the tolerance compare",
	"mat.Mul":                    "TestSolve, TestInverse and TestCholesky: the product they verify solutions and factors with",
	"nn.NewTensor":               "TestInferEvalDigestGolden, TestForwardResumeGolden and the other nn kernel tests: builds input tensors",
	"nn.ZeroGrads":               "TestBackwardWindowGolden and the gradient tests: clears gradients between passes",
	"scm.RandomModel":            "TestFindVariantFeaturesFewShotPower and TestFindVariantFeaturesNoShift: random ground-truth SCMs",
	"tree.FitClassificationTree": "TestClassificationTreeMatchesReference: the single tree the reference CART is compared with",
}

// TestNoUnusedInternalExports fails when an exported package-level function
// under internal/ is referenced by no non-test .go file in the tree (cmd/,
// examples/, bench/, the root facade, or any package other than its own
// declaration). Such a function is code no program runs; delete it with its
// tests, or name the test that needs it in exportAllowlist.
func TestNoUnusedInternalExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		files = append(files, file{dir: filepath.ToSlash(filepath.Dir(p)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported package-level functions declared under internal/, keyed by
	// package directory, then name.
	decls := map[string]map[string]*ast.FuncDecl{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			if decls[fl.dir] == nil {
				decls[fl.dir] = map[string]*ast.FuncDecl{}
			}
			decls[fl.dir][fd.Name.Name] = fd
		}
	}

	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/")
	}

	used := map[string]bool{} // "dir.Name"
	for _, fl := range files {
		// Local names of the internal packages this file imports.
		imports := map[string]string{}
		for _, is := range fl.f.Imports {
			p := strings.Trim(is.Path.Value, `"`)
			dir, ok := strings.CutPrefix(p, "netdrift/")
			if !ok || decls[dir] == nil {
				continue
			}
			name := path.Base(p)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = dir
		}
		own := decls[fl.dir]
		var self *ast.FuncDecl // the declaration being walked
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[id.Name]; ok {
						used[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				// A field or method name is not a reference to a function.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				// A same-package reference outside the function's own body.
				if fd, ok := own[n.Name]; ok && fd != self {
					used[fl.dir+"."+n.Name] = true
				}
			}
			return true
		}
		for _, d := range fl.f.Decls {
			self = nil
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && own[fd.Name.Name] == fd {
				self = fd
			}
			ast.Inspect(d, visit)
		}
	}

	var unused []string
	for dir, fns := range decls {
		for name := range fns {
			key := path.Base(dir) + "." + name
			if used[dir+"."+name] {
				if _, ok := exportAllowlist[key]; ok {
					t.Errorf("%s is reached by a program now; drop it from exportAllowlist", key)
				}
				continue
			}
			if _, ok := exportAllowlist[key]; !ok {
				unused = append(unused, key)
			}
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but no program references it: delete it, or allowlist it with the test that needs it", k)
	}
	for key := range exportAllowlist {
		dir, name, _ := strings.Cut(key, ".")
		if decls["internal/"+dir][name] == nil {
			t.Errorf("exportAllowlist names %s, which no longer exists", key)
		}
	}
}
