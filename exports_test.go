package seagull_test

// Exported names without callers: every exported function or method of a
// library package must be named somewhere outside its own declaration in the
// repo's non-test Go (benchmark/, cmd/ and examples/ included), so code that
// only its own tests reach does not accumulate. The gate matches by name: a
// name shared with a called function can hide a dead one, but it never flags
// a function that is called.

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

// calledOnlyByTests lists the exported functions no program calls that stay,
// each because tests of other code use it as a seam or a reference.
var calledOnlyByTests = map[string]string{
	"NewFaultStore":       "lake.FaultStore: durability, WAL and crash tests wrap a lake store to inject I/O faults",
	"Arm":                 "lake.FaultStore: tests arm an injected fault",
	"Disarm":              "lake.FaultStore: tests clear an injected fault mid-run",
	"Advance":             "simclock.Simulated: tests move simulated time by a duration",
	"AutoAdvanceSleeps":   "simclock.Simulated: tests run retry, breaker and cron loops without real sleeps",
	"BlockUntil":          "simclock.Simulated: tests advance only once the code under test waits on the clock",
	"Waiters":             "simclock.Simulated: tests assert that no timer leaked",
	"Sleepers":            "simclock.Simulated: tests assert that no sleeper leaked",
	"Mul":                 "linalg.Matrix: reference product for the fast-path tests",
	"MulVec":              "linalg.Matrix: reference product for the solver tests",
	"CholeskySolve":       "linalg: reference for CholeskySolveInPlace",
	"SolveRidge":          "linalg: scratch-free reference for the ARIMA fit and its allocation row",
	"ComputeSVD":          "linalg: reference decomposition for the randomized SVD",
	"FromRows":            "linalg: builds matrices in the linalg and ARIMA equivalence tests",
	"WriteRows":           "lake: tests write extracts from hand-made rows",
	"Delete":              "cosmos.Collection: scheduler and drift tests remove a document to reach missing-state paths",
	"Day":                 "timeseries.Series: forecast and serving tests slice one day of a series",
	"AIC":                 "forecast.ARIMA: tests check the order search's criterion",
	"Order":               "forecast.ARIMA: tests check the order the search chose",
	"ContextWithTraceRef": "obs: the allocation rows and trace tests build a traced context without an HTTP hop",
	"Unwrap":              "obs.statusWriter: http.ResponseController reaches the connection through it",
}

func TestExportedFunctionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	decls := map[*ast.Ident]bool{}
	exported := map[string][]string{} // name -> declaration positions
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fn.Name] = true
			if f.Name.Name != "main" && fn.Name.IsExported() {
				exported[fn.Name.Name] = append(exported[fn.Name.Name], fset.Position(fn.Pos()).String())
			}
		}
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var dead []string
	for name, at := range exported {
		if !used[name] && calledOnlyByTests[name] == "" {
			dead = append(dead, name+" ("+strings.Join(at, ", ")+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported function without a caller outside tests: %s", d)
	}
	for name := range calledOnlyByTests {
		if used[name] || exported[name] == nil {
			t.Errorf("allowlisted %s has a caller or is gone: drop it from calledOnlyByTests", name)
		}
	}
}
