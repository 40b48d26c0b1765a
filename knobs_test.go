package vbundle

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// knobStruct names the option structs the gate below covers.
var knobStruct = regexp.MustCompile(`(Config|Options|Params)$`)

// TestEveryKnobHasASetter holds the rule "a knob is a value two callers set
// differently": every exported field of a Config, Options or …Params struct
// in the module must be set somewhere other than its own withDefaults — as a
// composite-literal key, an assignment target, or an address handed to a
// flag — by some file of the module or of benchmark/, tests included. A field
// nothing sets is a constant dressed as an option: make it one.
//
// The files are type-checked (go/types over go/parser, standard library from
// export data), so a key or selector counts for the struct it really belongs
// to, not for every struct with a field of that name.
func TestEveryKnobHasASetter(t *testing.T) {
	l := loadModule(t)
	l.knobs = map[knobField]bool{}
	l.setBy = map[knobField]bool{}
	for _, p := range l.paths() {
		info := newInfo()
		files, err := l.checkWithTests(p, info)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			l.collect(f, info)
		}
	}
	// Guard against a vacuous pass: the walk must have found the stack's
	// own option structs.
	for _, k := range []knobField{{"vbundle/internal/core", "Options", "Topology"}, {"vbundle/internal/rebalance", "Config", "Threshold"}} {
		if _, ok := l.knobs[k]; !ok {
			t.Fatalf("knob %v not found: the walk missed the module's option structs", k)
		}
	}
	var unset []string
	structs := map[string]bool{}
	for k := range l.knobs {
		structs[k.pkg+"."+k.typ] = true
		if !l.setBy[k] {
			unset = append(unset, path.Base(k.pkg)+"."+k.typ+"."+k.field)
		}
	}
	sort.Strings(unset)
	t.Logf("%d settable fields across %d structs", len(l.knobs), len(structs))
	if len(unset) > 0 {
		t.Errorf("%d fields are set by nothing but their defaults; make each a constant:\n%s",
			len(unset), strings.Join(unset, "\n"))
	}
}

// exemptMethods are the methods of the standard interfaces a method may be
// called through without its name appearing at the call: fmt.Stringer, error
// with the Unwrap that errors.Is and errors.As look for, and
// json.Marshaler/Unmarshaler.
var exemptMethods = []string{"String", "Error", "Unwrap", "MarshalJSON", "UnmarshalJSON"}

// TestEveryExportHasACaller holds the rule "an export is something another
// package calls": every exported func, type, var, const and method declared in
// a non-test file under internal/ must be used by a non-test file of the
// module or of benchmark/, or by a test file of another package. A use inside
// the identifier's own declaration, or inside a type's own methods, does not
// count. A method is exempt when an interface of the module, fmt.Stringer,
// error or json.Marshaler/Unmarshaler declares a method of its name, since it
// may be called only through that interface. An export its own tests alone
// use is dead code: delete it, or move it into the _test.go file of the
// package whose tests need it.
func TestEveryExportHasACaller(t *testing.T) {
	l := loadModule(t)
	type span struct{ from, to token.Pos }
	exports := map[token.Pos]types.Object{} // by the position of its name
	own := map[token.Pos][]span{}
	used := map[token.Pos]bool{}
	ifaceMethods := map[string]bool{} // declared by an interface of the module
	for _, p := range l.paths() {
		info := newInfo()
		files, err := l.checkWithTests(p, info)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := info.Types[it].Type.(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							ifaceMethods[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
			if !strings.HasPrefix(p, "vbundle/internal/") {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					s := span{d.Pos(), d.End()}
					if d.Recv != nil {
						if tn := recvType(d.Recv.List[0].Type, info); tn != nil {
							own[tn.Pos()] = append(own[tn.Pos()], s)
						}
					}
					if d.Name.IsExported() {
						exports[d.Name.Pos()] = info.Defs[d.Name]
						own[d.Name.Pos()] = append(own[d.Name.Pos()], s)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						s := span{spec.Pos(), spec.End()}
						var names []*ast.Ident
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{sp.Name}
						case *ast.ValueSpec:
							names = sp.Names
						}
						for _, id := range names {
							if id.IsExported() {
								exports[id.Pos()] = info.Defs[id]
								own[id.Pos()] = append(own[id.Pos()], s)
							}
						}
					}
				}
			}
		}
		// Another package's use counts wherever it is; a use in the export's
		// own package counts from a non-test file outside its own
		// declaration and methods, all of which this package's check has
		// just collected.
		for id, obj := range info.Uses {
			pos := obj.Pos()
			if obj.Pkg() == nil || obj.Pkg().Path() != p {
				used[pos] = true
				continue
			}
			if strings.HasSuffix(l.fset.File(id.Pos()).Name(), "_test.go") {
				continue
			}
			if !slices.ContainsFunc(own[pos], func(s span) bool { return s.from <= id.Pos() && id.Pos() < s.to }) {
				used[pos] = true
			}
		}
	}
	// Guard against a vacuous pass: the walk must have seen the stack's
	// constructors used and exempted some method through a module interface.
	byName := map[string]token.Pos{}
	exempted := 0
	var unused []string
	for pos, obj := range exports {
		name := path.Base(obj.Pkg().Path()) + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if ifaceMethods[obj.Name()] {
					exempted++
					continue
				}
				if slices.Contains(exemptMethods, obj.Name()) {
					continue
				}
				name = path.Base(obj.Pkg().Path()) + "." + namedOf(recv.Type()).Obj().Name() + "." + obj.Name()
			}
		}
		byName[name] = pos
		if !used[pos] {
			unused = append(unused, name)
		}
	}
	for _, name := range []string{"core.New", "rebalance.NewCoordinator"} {
		if pos, ok := byName[name]; !ok || !used[pos] {
			t.Fatalf("%s not seen as used: the walk missed the module's callers", name)
		}
	}
	if exempted == 0 {
		t.Fatal("no method exempted by a module interface: the walk missed the module's interfaces")
	}
	sort.Strings(unused)
	t.Logf("%d exports under internal/, %d methods exempted by a module interface", len(exports), exempted)
	if len(unused) > 0 {
		t.Errorf("%d exports have no caller outside their own package's tests; delete each, or move it into a _test.go file:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}

// reachAllowed names the functions under internal/ that no gate runs, each
// with the reason it stays: an error or injection path, a String or Error,
// a caller only in benchmark/, a test harness or oracle shared across
// packages, or a safety path no command line reaches. It only shrinks: a new
// unreached function is deleted or pinned by a TestGates row, and an entry
// whose function a gate comes to run goes.
var reachAllowed = map[string]string{
	"aggregation.Manager.PublishNow":       "benchmark/ only: the ladder workload's forced round",
	"audit.Auditor.report":                 "error path: a check that fails; the audit package's injection tests run it",
	"audit.nodeOrVM":                       "error path: report's violation instant",
	"cluster.Server.Admit":                 "injection: audit's tests list a VM on a roster behind the cluster's back",
	"cluster.Cluster.Unplace":              "test harness shared across packages: placement's and core's fixtures free a server and re-place the same VM",
	"cluster.Kind.String":                  "String",
	"core.EngineKind.String":               "String",
	"ids.Random":                           "benchmark/ only: the route kernel's keys",
	"ids.Id.String":                        "String",
	"ids.Id.Short":                         "String: the short form Node.String and Scribe.String print",
	"pastry.BaseApp.Deliver":               "benchmark/ only: its sink app embeds BaseApp",
	"pastry.BaseApp.HandleDirect":          "benchmark/ only: its sink app embeds BaseApp",
	"pastry.Ring.Topology":                 "benchmark/ only: its stacks read the ring's topology",
	"pastry.Ring.ClosestLive":              "test oracle shared across packages: the routing ground truth",
	"pastry.Ring.firstLive":                "test oracle shared across packages: ClosestLive's walk",
	"pastry.Node.String":                   "String",
	"placement.ResolutionCache.Invalidate": "safety path: vb serve -cache -rebalance completes no migration (served VMs carry no demand; -servers 256 -rate 5 -duration 30m) and no serve command line crashes a rendezvous",
	"rebalance.Role.String":                "String",
	"rebalance.Agent.OrphanAccepted":       "safety path: a verdict past every retry; vb faults -servers 64 -lease 1 -drop-rates 0,0.1 (and 0.2,0.4, and the -crash line at 0.3) delivers none",
	"rebalance.renewMsg.WireSize":          "safety path: lease renewal fires at lease/3 (10 s at least) and a 128-MB migration takes 1.4 s; vb faults -lease 1 sends none",
	"rebalance.renewMsg.Recycle":           "safety path: lease renewal, as renewMsg.WireSize",
	"scribe.anycastFunc.AnycastDone":       "benchmark/ only: its any-cast kernel hears verdicts through a func",
	"scribe.Scribe.InTree":                 "test oracle shared across packages: the tree's shape",
	"scribe.Scribe.Children":               "test oracle shared across packages: the tree's shape",
	"scribe.Scribe.Parent":                 "test oracle shared across packages: the tree's shape",
	"scribe.Scribe.String":                 "String",
	"serve.OverloadError.Error":            "Error",
	"sim.CheckPoisoned":                    "test harness shared across packages: the poison-on-bank runs",
	"sim.PoisonEach":                       "test harness shared across packages: the poison-on-bank runs",
	"sim.Poisoner.Watch":                   "test harness shared across packages: the poison-on-bank runs",
	"sim.Poisoner.RunUntil":                "test harness shared across packages: the poison-on-bank runs",
	"sim.Bank.Poison":                      "test harness shared across packages: the poison-on-bank runs",
	"sim.Engine.At":                        "benchmark/ only: the engine kernel",
	"simnet.HandlerFunc.HandleMessage":     "benchmark/ only: the network kernel's sink",
	"topology.Tier.String":                 "String",
}

// TestEveryFunctionRunsInAGate holds the rule "a function stays in the
// binary only if a gate runs it, or reachAllowed says why not". It runs the
// gates under coverage — go test -short ./cmd/vb with every internal/
// package instrumented — and fails on a function under internal/ none of
// whose blocks ran and that reachAllowed does not name, and on an entry of
// reachAllowed whose function ran or no longer exists. Delete an unreached
// function, or pin it with a TestGates row.
func TestEveryFunctionRunsInAGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the gates under coverage (≈ 20 s)")
	}
	prof := filepath.Join(t.TempDir(), "c.out")
	cmd := exec.Command("go", "test", "-short", "./cmd/vb", "-coverpkg=vbundle/internal/...", "-coverprofile="+prof)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("the gates under coverage failed: %v\n%s", err, out)
	}
	blocks, err := readProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	ran, stmts, covered := reachOf(loadModule(t), blocks)
	// Guard against a vacuous pass: the stack's constructor must be seen,
	// and seen run.
	if !ran["core.New"] {
		t.Fatal("core.New not seen reached: the profile or the walk missed the gates")
	}
	t.Logf("reach %.1f%% (%d of %d statements); %d functions, %d allow-listed",
		100*float64(covered)/float64(stmts), covered, stmts, len(ran), len(reachAllowed))
	var unreached, stale []string
	for name, ok := range ran {
		if _, allowed := reachAllowed[name]; !ok && !allowed {
			unreached = append(unreached, name)
		}
	}
	for name := range reachAllowed {
		if ok, found := ran[name]; !found || ok {
			stale = append(stale, fmt.Sprintf("%s (reached %v, found %v)", name, ok, found))
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	if len(unreached) > 0 {
		t.Errorf("%d functions run in no gate; delete each, or pin it with a TestGates row:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("%d reachAllowed entries are stale; remove each:\n%s", len(stale), strings.Join(stale, "\n"))
	}
}

// coverBlock is one basic block of a cover profile: where it starts in a
// file of the module, its statements and how often it ran.
type coverBlock struct {
	file                  string // relative to the module root
	line0, col0, stmts, n int
}

// readProfile parses a go test -coverprofile file.
func readProfile(name string) ([]coverBlock, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var blocks []coverBlock
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") {
			continue
		}
		var b coverBlock
		var line1, col1 int
		colon := strings.LastIndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("cover profile: bad line %q", line)
		}
		if _, err := fmt.Sscanf(line[colon+1:], "%d.%d,%d.%d %d %d", &b.line0, &b.col0, &line1, &col1, &b.stmts, &b.n); err != nil {
			return nil, fmt.Errorf("cover profile: %q: %v", line, err)
		}
		b.file = strings.TrimPrefix(line[:colon], "vbundle/")
		blocks = append(blocks, b)
	}
	return blocks, sc.Err()
}

// reachOf maps every function declared in a non-test file under internal/ —
// pkg.Func, or pkg.Recv.Method — to whether any of its blocks ran, and
// counts the statements the profile holds and those that ran.
func reachOf(l *knobLoader, blocks []coverBlock) (ran map[string]bool, stmts, covered int) {
	byFile := map[string][]coverBlock{}
	for _, b := range blocks {
		byFile[b.file] = append(byFile[b.file], b)
		stmts += b.stmts
		if b.n > 0 {
			covered += b.stmts
		}
	}
	ran = map[string]bool{}
	for p, d := range l.pkgs {
		if !strings.HasPrefix(p, "vbundle/internal/") {
			continue
		}
		for _, f := range d.files {
			file := filepath.ToSlash(l.fset.File(f.Pos()).Name())
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := path.Base(p) + "." + fd.Name.Name
				if fd.Recv != nil {
					name = path.Base(p) + "." + recvIdent(fd.Recv.List[0].Type).Name + "." + fd.Name.Name
				}
				from, to := l.fset.Position(fd.Pos()), l.fset.Position(fd.End())
				for _, b := range byFile[file] {
					if within(b.line0, b.col0, from, to) {
						ran[name] = ran[name] || b.n > 0
					}
				}
			}
		}
	}
	return ran, stmts, covered
}

// within reports whether line.col lies in [from, to).
func within(line, col int, from, to token.Position) bool {
	after := line > from.Line || line == from.Line && col >= from.Column
	before := line < to.Line || line == to.Line && col < to.Column
	return after && before
}

// recvType returns the type a method's receiver expression names.
func recvType(e ast.Expr, info *types.Info) *types.TypeName {
	if id := recvIdent(e); id != nil {
		tn, _ := info.Uses[id].(*types.TypeName)
		return tn
	}
	return nil
}

// recvIdent returns the identifier of the type a method's receiver
// expression names.
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// loadModule parses every Go file of the module and of benchmark/, tests
// included, ready for checkWithTests.
func loadModule(t *testing.T) *knobLoader {
	l := &knobLoader{fset: token.NewFileSet(), pkgs: map[string]*knobPkg{}}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
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
		if strings.HasSuffix(p, ".go") {
			return l.parse(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// knobField is one exported field of an option struct, by package path.
type knobField struct{ pkg, typ, field string }

// knobPkg is one directory's files, split the way go test builds them, and
// the package its non-test files make.
type knobPkg struct {
	files, internal []*ast.File
	external        []*ast.File // package x_test
	types           *types.Package
}

type knobLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*knobPkg // by import path
	knobs map[knobField]bool
	setBy map[knobField]bool
	// tested is the package under test built with its test files while its
	// external tests are checked, so export_test.go names resolve.
	tested *types.Package
}

func (l *knobLoader) parse(p string) error {
	f, err := parser.ParseFile(l.fset, p, nil, 0)
	if err != nil {
		return err
	}
	importPath := "vbundle"
	if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
		importPath += "/" + dir
	}
	d := l.pkgs[importPath]
	if d == nil {
		d = &knobPkg{}
		l.pkgs[importPath] = d
	}
	switch {
	case !strings.HasSuffix(p, "_test.go"):
		d.files = append(d.files, f)
	case strings.HasSuffix(f.Name.Name, "_test"):
		d.external = append(d.external, f)
	default:
		d.internal = append(d.internal, f)
	}
	return nil
}

// Import resolves the module's packages from source and everything else
// from the standard library's export data.
func (l *knobLoader) Import(p string) (*types.Package, error) {
	if l.tested != nil && l.tested.Path() == p {
		return l.tested, nil
	}
	d := l.pkgs[p]
	if d == nil {
		return l.std.Import(p)
	}
	if d.types == nil {
		pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, d.files, nil)
		if err != nil {
			return nil, err
		}
		d.types = pkg
		if l.knobs != nil && !strings.HasPrefix(p, "vbundle/benchmark") {
			l.declare(pkg)
		}
	}
	return d.types, nil
}

// declare records the exported fields of pkg's option structs.
func (l *knobLoader) declare(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !knobStruct.MatchString(name) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				l.knobs[knobField{pkg.Path(), name, f.Name()}] = true
			}
		}
	}
}

// paths returns the import paths of the loaded packages, sorted.
func (l *knobLoader) paths() []string {
	var paths []string
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// checkWithTests type-checks one package with its test files and then its
// external tests into info, and returns all of their files.
func (l *knobLoader) checkWithTests(importPath string, info *types.Info) ([]*ast.File, error) {
	d := l.pkgs[importPath]
	if _, err := l.Import(importPath); err != nil {
		return nil, err
	}
	files := append(append([]*ast.File(nil), d.files...), d.internal...)
	tested, err := (&types.Config{Importer: l}).Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	if len(d.external) > 0 {
		// go test rebuilds every package between the external tests and the
		// package under test against its test files; this check does not, so
		// a value passing through such a package has two types of one name.
		// The errors that raises are only assignability complaints: every
		// literal and selector still has its type, and knobs are keyed by
		// name.
		l.tested = tested
		(&types.Config{Importer: l, Error: func(error) {}}).Check(importPath+"_test", l.fset, d.external, info)
		l.tested = nil
		files = append(files, d.external...)
	}
	return files, nil
}

// collect records the fields f sets, skipping each struct's own withDefaults.
func (l *knobLoader) collect(f *ast.File, info *types.Info) {
	for _, decl := range f.Decls {
		var skip *types.Named
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "withDefaults" && fd.Recv != nil {
			skip = namedOf(info.Types[fd.Recv.List[0].Type].Type)
		}
		set := func(owner *types.Named, field string) {
			if owner == nil || owner.Obj().Pkg() == nil || (skip != nil && owner.Obj() == skip.Obj()) {
				return
			}
			l.setBy[knobField{owner.Obj().Pkg().Path(), owner.Obj().Name(), field}] = true
		}
		target := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.SelectorExpr:
					if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
						set(fieldOwner(s), x.Sel.Name)
					}
					e = x.X
				default:
					return
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				owner := namedOf(info.Types[x].Type)
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set(owner, id.Name)
						}
					}
				}
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE {
					for _, e := range x.Lhs {
						target(e)
					}
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					target(x.X)
				}
			}
			return true
		})
	}
}

// fieldOwner returns the struct that declares the selected field, following
// promotion through embedded fields.
func fieldOwner(s *types.Selection) *types.Named {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		t = st.Field(i).Type()
	}
	return namedOf(t)
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := deref(t).(*types.Named)
	return n
}
