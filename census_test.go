package pac

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusCeiling is the number of exported funcs, types, consts, vars and
// methods declared in non-test files under internal/. TestExportCensus
// fails when the tree disagrees with it in either direction: above, the
// surface grew; below, lower the constant so the ground gained is kept.
const censusCeiling = 810

// Where an exported identifier is named, widest first. An identifier
// named from a non-test file of another package (internal/, cmd/,
// pac.go) is in use and on no list; otherwise it lands on the list of
// the widest place that does name it.
const (
	usedAbroad    = 1 << iota // non-test file of another package
	usedBenchmark             // any file of benchmark/
	usedAtHome                // non-test file of its own package, outside its own declaration
	usedTests                 // a _test.go file
)

// censusLists are the four lists in the order they are printed;
// censusWhere says what being on one means.
var (
	censusLists = []string{"nowhere", "tests", "benchmark", "package"}
	censusWhere = map[string]string{
		"nowhere":   "nowhere",
		"tests":     "only by tests",
		"benchmark": "outside its package only by benchmark/",
		"package":   "only inside its own package",
	}
)

func censusList(used int) string {
	switch {
	case used&usedAbroad != 0:
		return ""
	case used&usedBenchmark != 0:
		return "benchmark"
	case used&usedAtHome != 0:
		return "package"
	case used&usedTests != 0:
		return "tests"
	}
	return "nowhere"
}

// TestExportCensus is a ratchet on the exported surface of internal/.
// It type-checks every package of the tree (benchmark/ included, as one
// more consumer), sorts the exported identifiers nobody outside their
// package needs into four lists — named nowhere, only by tests, only by
// benchmark/, only inside their own package — and compares the lists
// with testdata/census.txt. A name that joins a list without a line in
// that file fails the test, and so does a line whose name has left its
// list; -v prints the lists.
func TestExportCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree")
	}
	c := newCensus(t)
	c.checkTree()
	got, total := c.lists()

	counts := map[string][2]int{} // list → {package-level names, methods}
	for id, list := range got {
		n := counts[list]
		n[strings.Count(id, ".")-1]++
		counts[list] = n
	}
	for _, list := range censusLists {
		t.Logf("%-9s %3d package-level, %3d methods", list, counts[list][0], counts[list][1])
	}
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if got[ids[i]] != got[ids[j]] {
			return got[ids[i]] < got[ids[j]]
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		t.Logf("%s %s", got[id], id)
	}
	t.Logf("%d exported identifiers under internal/ (ceiling %d)", total, censusCeiling)

	switch {
	case total > censusCeiling:
		t.Errorf("internal/ exports %d identifiers, ceiling is %d: the surface grew", total, censusCeiling)
	case total < censusCeiling:
		t.Errorf("internal/ exports %d identifiers, ceiling is %d: lower censusCeiling to keep the ground", total, censusCeiling)
	}

	want := readCensusFile(t, filepath.Join("testdata", "census.txt"))
	for _, id := range ids {
		switch list, ok := want[id]; {
		case !ok:
			t.Errorf("%s is exported but named %s: unexport it, delete it, or give testdata/census.txt the line %q",
				id, censusWhere[got[id]], got[id]+" "+id+" — <reason>")
		case list != got[id]:
			t.Errorf("%s moved from list %q to %q: update its line in testdata/census.txt", id, list, got[id])
		}
	}
	for id, list := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("testdata/census.txt: %q is no longer on list %q (deleted, unexported, or in use): prune the line", id, list)
		}
	}
}

// readCensusFile parses "<list> <pkg.Ident> — <reason>" lines; '#'
// starts a comment. The reason is mandatory except on the package list,
// whose names are pinned rather than justified.
func readCensusFile(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, reason, _ := strings.Cut(line, "—")
		fields := strings.Fields(head)
		if len(fields) != 2 || censusWhere[fields[0]] == "" {
			t.Errorf("%s:%d: want \"<list> <pkg.Ident> — <reason>\", got %q", path, n, line)
			continue
		}
		if fields[0] != "package" && strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s is on list %q and needs a reason", path, n, fields[1], fields[0])
		}
		if _, dup := want[fields[1]]; dup {
			t.Errorf("%s:%d: %s listed twice", path, n, fields[1])
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// census loads packages from source. Module paths resolve straight to
// directories under the repository root and everything else to GOROOT
// (function bodies skipped, cgo off), so no `go list` runs.
type census struct {
	t    *testing.T
	fset *token.FileSet
	ctxt build.Context
	pkgs map[string]*types.Package // import path → non-test package
	asts map[string]*ast.File      // file name → parsed once, shared by both passes

	declared map[string]bool          // census id → declared in a non-test file under internal/
	own      map[string][]posRange    // census id → its own declaration (methods included, for a type)
	used     map[string]int           // census id → used* bits
	ifaceUse map[*types.Func]int      // interface method → used* bits of its selections
	named    map[*types.TypeName]bool // every concrete named type of the module, both passes
}

type posRange struct{ pos, end token.Pos }

func newCensus(t *testing.T) *census {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &census{
		t: t, fset: token.NewFileSet(), ctxt: ctxt,
		pkgs: map[string]*types.Package{"unsafe": types.Unsafe}, asts: map[string]*ast.File{},
		declared: map[string]bool{}, own: map[string][]posRange{}, used: map[string]int{},
		ifaceUse: map[*types.Func]int{}, named: map[*types.TypeName]bool{},
	}
}

func (c *census) dir(path string) (dir string, inModule bool) {
	if path == "pac" || strings.HasPrefix(path, "pac/") {
		return filepath.Join(".", strings.TrimPrefix(path, "pac")), true
	}
	dir = filepath.Join(c.ctxt.GOROOT, "src", path)
	if _, err := os.Stat(dir); err != nil {
		dir = filepath.Join(c.ctxt.GOROOT, "src", "vendor", path)
	}
	return dir, false
}

// Import implements types.Importer.
func (c *census) Import(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	c.pkgs[path] = nil
	dir, inModule := c.dir(path)
	bp, err := c.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := c.check(path, dir, bp.GoFiles, inModule)
	c.pkgs[path] = pkg
	return pkg, err
}

// check type-checks one set of files as package path. Module packages
// are checked in full and fed to the census; GOROOT ones are only
// needed for their declarations.
func (c *census) check(path, dir string, names []string, inModule bool) (*types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		name = filepath.Join(dir, name)
		f := c.asts[name]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			c.asts[name] = f
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c, IgnoreFuncBodies: !inModule, Sizes: types.SizesFor("gc", c.ctxt.GOARCH)}
	if !inModule {
		conf.Error = func(error) {} // GOROOT is the toolchain's to verify
		pkg, _ := conf.Check(path, c.fset, files, nil)
		return pkg, nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.record(pkg, files, info)
	return pkg, nil
}

// censusID names an exported package-level object or concrete method of
// a package under internal/: "tensor.MatMul", "tensor.Tensor.At".
func censusID(obj types.Object) string {
	if obj.Pkg() == nil || !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), "pac/internal/") {
		return ""
	}
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "pac/internal/")
	if tn := receiverType(obj); tn != nil {
		if types.IsInterface(tn.Type()) {
			return ""
		}
		return pkg + "." + tn.Name() + "." + obj.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a field or a local
	}
	return pkg + "." + obj.Name()
}

func (c *census) record(pkg *types.Package, files []*ast.File, info *types.Info) {
	bench := strings.HasPrefix(pkg.Path(), "pac/benchmark")
	for _, f := range files {
		test := strings.HasSuffix(c.fset.File(f.Pos()).Name(), "_test.go")
		// Declarations: what exists, and the span a name's own
		// declaration covers (a recursive call, or a method naming its
		// receiver type, is not a caller).
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if tn := receiverType(obj); tn != nil {
					if id := censusID(tn); id != "" {
						c.own[id] = append(c.own[id], posRange{d.Pos(), d.End()})
					}
				}
				c.declare(obj, d, test)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						c.declare(info.Defs[s.Name], s, test)
						if tn, ok := info.Defs[s.Name].(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
							c.named[tn] = true
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							c.declare(info.Defs[name], s, test)
						}
					}
				}
			}
		}
	}
	for ident, obj := range info.Uses {
		file := c.fset.File(ident.Pos()).Name()
		test := strings.HasSuffix(file, "_test.go")
		var bit int
		switch {
		case bench:
			bit = usedBenchmark
		case test:
			bit = usedTests
		case obj.Pkg() == pkg:
			bit = usedAtHome
		default:
			bit = usedAbroad
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				c.ifaceUse[fn] |= bit
				continue
			}
		}
		id := censusID(obj)
		if id == "" || c.inOwnDecl(id, ident.Pos()) {
			continue
		}
		c.used[id] |= bit
	}
}

func receiverType(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if named, ok := typ.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

func (c *census) declare(obj types.Object, node ast.Node, test bool) {
	if obj == nil {
		return
	}
	id := censusID(obj)
	if id == "" {
		return
	}
	c.own[id] = append(c.own[id], posRange{node.Pos(), node.End()})
	if !test {
		c.declared[id] = true
	}
}

func (c *census) inOwnDecl(id string, pos token.Pos) bool {
	for _, r := range c.own[id] {
		if r.pos <= pos && pos < r.end {
			return true
		}
	}
	return false
}

// checkTree runs both passes: every package without its tests (what
// importers see), then every package that has tests again with them —
// in-package tests beside the package's own files, external test
// packages and benchmark/ on their own.
func (c *census) checkTree() {
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := c.ctxt.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		c.t.Fatal(err)
	}
	for _, dir := range dirs {
		if dir == "benchmark" {
			continue
		}
		if _, err := c.Import(filepath.ToSlash(filepath.Join("pac", dir))); err != nil {
			c.t.Fatal(err)
		}
	}
	for _, dir := range dirs {
		bp, _ := c.ctxt.ImportDir(dir, 0)
		path := filepath.ToSlash(filepath.Join("pac", dir))
		var err error
		// benchmark/ is a module of its own that nothing imports, so this
		// is its only pass.
		if dir == "benchmark" || len(bp.TestGoFiles) > 0 {
			_, err = c.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...), true)
		}
		if err == nil && len(bp.XTestGoFiles) > 0 {
			_, err = c.check(path+"_test", dir, bp.XTestGoFiles, true)
		}
		if err != nil {
			c.t.Fatal(err)
		}
	}
	c.creditInterfaces()
}

// creditInterfaces passes a selection of an interface method on to the
// concrete methods that can stand behind it, and counts as in use every
// method the standard library calls through one of its own interfaces.
func (c *census) creditInterfaces() {
	errType := types.Universe.Lookup("error").Type()
	// errors.Is, As and Unwrap find Unwrap by type assertion, not
	// through a named interface.
	unwrapper := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))}, nil)
	stdlib := []types.Type{errType, unwrapper.Complete()}
	for path, names := range map[string][]string{
		"fmt": {"Stringer"}, "net/http": {"Handler"}, "sort": {"Interface"}, "container/heap": {"Interface"}, "io": nil,
	} {
		pkg, err := c.Import(path)
		if err != nil {
			c.t.Fatal(err)
		}
		if names == nil {
			names = pkg.Scope().Names()
		}
		for _, name := range names {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
				stdlib = append(stdlib, tn.Type())
			}
		}
	}
	for tn := range c.named {
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		credit := func(name string, bits int) {
			if sel := mset.Lookup(tn.Pkg(), name); sel != nil {
				if id := censusID(sel.Obj()); id != "" {
					c.used[id] |= bits
				}
			}
		}
		for _, iface := range stdlib {
			if it := iface.Underlying().(*types.Interface); types.Implements(ptr, it) {
				for i := 0; i < it.NumMethods(); i++ {
					credit(it.Method(i).Name(), usedAbroad)
				}
			}
		}
		for fn, bits := range c.ifaceUse {
			if mset.Lookup(tn.Pkg(), fn.Name()) == nil {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if types.Implements(ptr, recv.Underlying().(*types.Interface)) {
				credit(fn.Name(), bits)
			}
		}
	}
}

func (c *census) lists() (map[string]string, int) {
	got := map[string]string{}
	for id := range c.declared {
		if list := censusList(c.used[id]); list != "" {
			got[id] = list
		}
	}
	return got, len(c.declared)
}
