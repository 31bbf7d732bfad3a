package saccs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadSurfaceAllow names the exported identifiers of the root package and
// internal/ that no non-test file uses but that stay, each with its reason:
// a test hook, test support, or a reference implementation that a test
// compares against. An entry naming a type covers the type's methods.
// Anything else is deleted or moved into the _test.go file of its only user.
var deadSurfaceAllow = map[string]string{
	"saccs/internal/check.DefaultSuite":             "test support: the oracle and property suite TestDefaultSuite drives (make check)",
	"saccs/internal/index.Index.SetReviewWeighting": "test hook: the Eq. 1 review-weighting ablation of BenchmarkAblationDegreeOfTruth",
	"saccs/internal/ingest.MemFS":                   "test support: the fault-injection filesystem of the crash-recovery tests and internal/check",
	"saccs/internal/mat.ExpRow32":                   "reference implementation: the float32 softmax exp that bert's quantized-attention test compares against",
	"saccs/internal/mat.ForceScalar":                "test hook: sends every kernel to its pure-Go twin for the asm-vs-Go identity tests",
	"saccs/internal/obs.Telemetry.Events":           "test hook: the wide-event ring's reader, through which the telemetry tests and TestObsLint see wide events",
	"saccs/internal/obs/promtext.Validate":          "test support: the Prometheus text-format validator of the /metrics tests",
	"saccs/internal/race.Enabled":                   "test hook: allocation pins skip or loosen under the race detector",
}

// TestDeadSurface is the dead-surface gate run by `make lint`: every exported
// package-level func, method, type, var and const of the root package and of
// internal/ must be used by a non-test file of this module or of benchmark/,
// or be named in deadSurfaceAllow. An entry that covers no finding fails too,
// so the allowlist cannot go stale.
func TestDeadSurface(t *testing.T) {
	dead, err := deadSurface(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, name := range dead {
		entry := name
		if _, ok := deadSurfaceAllow[entry]; !ok {
			entry = name[:strings.LastIndex(name, ".")]
		}
		if _, ok := deadSurfaceAllow[entry]; !ok {
			t.Errorf("%s is exported but no non-test file uses it: delete it, move it into the _test.go file of its only user, or allowlist it with a reason", name)
		}
		covered[entry] = true
	}
	for name := range deadSurfaceAllow {
		if !covered[name] {
			t.Errorf("%s is allowlisted but every identifier it names has a non-test user, or is gone: drop its entry", name)
		}
	}
}

// TestDeadSurfaceFixture runs the checker over a two-module fixture and
// requires it to report exactly the unused export and the export that only a
// _test.go file uses.
func TestDeadSurfaceFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"fix/go.mod": "module fix\n\ngo 1.22\n",
		"fix/fix.go": `package fix

func Used() int { return 1 }

func Unused() int { return 2 }

func TestOnly() int { return 3 }

func ByOther() int { return 4 }

type Box[T any] struct{ V T }

func (b Box[T]) String() string { return "box" }

type Err struct{ Cause error }

func (e *Err) Error() string { return "err" }

func (e *Err) Unwrap() error { return e.Cause }
`,
		"fix/fix_test.go": `package fix

import "testing"

func TestFix(t *testing.T) { TestOnly() }
`,
		"fix/cmd/main.go": `package main

import (
	"fmt"

	"fix"
)

func main() { fmt.Println(fix.Used(), fix.Box[int]{}, &fix.Err{}) }
`,
		"other/go.mod": "module other\n\ngo 1.22\n\nrequire fix v0.0.0\n\nreplace fix => ../fix\n",
		"other/main.go": `package main

import "fix"

func main() { fix.ByOther() }
`,
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadSurface(filepath.Join(root, "fix"), filepath.Join(root, "other"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fix.TestOnly", "fix.Unused"}; fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Fatalf("dead surface = %v, want %v", dead, want)
	}
}

// listedPackage is the part of `go list -json` output the checker reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct {
		Path string
		Main bool
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// deadSurface type-checks every non-test file of the modules in dirs, the
// first of which is scanned, and returns the exported identifiers of that
// module's root package and internal/ that no non-test file uses, sorted. Each
// module's own packages are checked from source, in dependency order, so all
// modules share one set of objects; everything else is read from the export
// data of `go list -export`.
//
// Only the files the host's GOOS and GOARCH build are read. A use anywhere
// counts, from the same package too. A method also counts as
// used when its receiver type (or a pointer to it, or an instantiation of it)
// implements an interface declared in these modules or one of a few standard
// interfaces that code reaches through the interface alone.
func deadSurface(dirs ...string) ([]string, error) {
	exports := map[string]string{}
	var own []listedPackage
	scope := ""
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listedPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Module != nil && p.Module.Main {
				own = append(own, p)
				if i == 0 {
					scope = p.Module.Path
				}
			} else if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	var scanned []*types.Package
	for _, p := range own {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if p.ImportPath == scope || strings.HasPrefix(p.ImportPath, scope+"/internal/") {
			scanned = append(scanned, pkg)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}

	var ifaces []*types.Interface
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && types.IsInterface(tn.Type()) {
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, name := range []string{"fmt.Stringer", "encoding.TextMarshaler", "encoding.TextUnmarshaler", "io.Writer", "io.Closer", "net/http.Handler"} {
		dot := strings.LastIndex(name, ".")
		if pkg, err := conf.Importer.Import(name[:dot]); err == nil {
			ifaces = append(ifaces, pkg.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface))
		}
	}
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false))
	ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())

	instances := map[*types.TypeName]map[string]types.Type{}
	for _, tv := range info.Types {
		typ := tv.Type
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, ok := typ.(*types.Named); ok && named.TypeArgs().Len() > 0 {
			origin := named.Origin().Obj()
			if instances[origin] == nil {
				instances[origin] = map[string]types.Type{}
			}
			instances[origin][types.TypeString(named, nil)] = named
		}
	}

	var dead []string
	for _, pkg := range scanned {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !used[obj] {
				dead = append(dead, pkg.Path()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			cands := []types.Type{named}
			if named.TypeParams().Len() > 0 {
				cands = cands[:0]
				for _, inst := range instances[tn] {
					cands = append(cands, inst)
				}
			}
			for _, typ := range cands {
				for _, iface := range ifaces {
					if !types.Implements(typ, iface) && !types.Implements(types.NewPointer(typ), iface) {
						continue
					}
					for i := 0; i < iface.NumMethods(); i++ {
						m, _, _ := types.LookupFieldOrMethod(typ, true, pkg, iface.Method(i).Name())
						used[m.(*types.Func).Origin()] = true
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] {
					dead = append(dead, pkg.Path()+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}
