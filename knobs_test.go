package vbundle

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
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
	l := &knobLoader{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*knobPkg{},
		knobs: map[knobField]bool{},
		setBy: map[knobField]bool{},
	}
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
	var paths []string
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := l.checkWithTests(p); err != nil {
			t.Fatal(err)
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
		if !strings.HasPrefix(p, "vbundle/benchmark") {
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

// checkWithTests type-checks one package with its test files and then its
// external tests, recording every field they set.
func (l *knobLoader) checkWithTests(importPath string) error {
	d := l.pkgs[importPath]
	if _, err := l.Import(importPath); err != nil {
		return err
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	files := append(append([]*ast.File(nil), d.files...), d.internal...)
	tested, err := (&types.Config{Importer: l}).Check(importPath, l.fset, files, info)
	if err != nil {
		return err
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
	for _, f := range files {
		l.collect(f, info)
	}
	return nil
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
