package skyquery

// The root API surface added by the redesign: functional options,
// Dial options, and the typed error re-exports.

import (
	"context"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api_root.golden from the root package's exported identifiers")

// rootAPI lists the root package's exported surface from its non-test
// sources: one "<kind> <name>" line per exported top-level identifier
// and one "field <Type>.<Field>" line per exported field of an exported
// struct, sorted.
func rootAPI(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var api []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					api = append(api, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						api = append(api, "type "+s.Name.Name)
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if id.IsExported() {
									api = append(api, "field "+s.Name.Name+"."+id.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								api = append(api, d.Tok.String()+" "+id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(api)
	return api
}

// TestRootAPIGolden pins the root package's exported identifiers, so an
// addition or removal shows up as a reviewed golden diff. Regenerate with
// go test -run TestRootAPIGolden -update .
func TestRootAPIGolden(t *testing.T) {
	got := strings.Join(rootAPI(t), "\n") + "\n"
	path := filepath.Join("testdata", "api_root.golden")
	if *updateAPI {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("root package API differs from %s (regenerate with -update):\ngot:\n%s", path, got)
	}
}

func TestLaunchWithOptions(t *testing.T) {
	f, err := LaunchWith(WithBodies(300), WithShards(2), WithParallelism(2), WithChunkRows(100))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Query(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows from the functional-options federation")
	}
}

func TestDialOptions(t *testing.T) {
	c := Dial("http://portal.invalid/soap",
		WithClientCodec(CodecXML),
		WithClientTimeout(3*time.Second),
		WithClientRetries(-1),
	)
	if c.SOAP.Codec != CodecXML || c.SOAP.Timeout != 3*time.Second || c.SOAP.MaxRetries != -1 {
		t.Errorf("dial options not applied: %+v", c.SOAP)
	}
}

func TestParseErrorPosition(t *testing.T) {
	f := launch(t, Options{Bodies: 100})
	_, err := f.Query(context.Background(), "SELECT O.ra\nFROM SDSS:PhotoObject O\nWHERRE O.ra > 0")
	if err == nil {
		t.Fatal("malformed query accepted")
	}
	pe, ok := AsParseError(err)
	if !ok {
		t.Fatalf("error is %T (%v), want *ParseError", err, err)
	}
	if pe.Line != 3 || pe.Col != 1 || pe.Category != ErrSyntax {
		t.Errorf("ParseError position = line %d col %d category %q, want line 3 col 1 syntax (%v)",
			pe.Line, pe.Col, pe.Category, pe)
	}
}

func TestParseErrorSemanticCategory(t *testing.T) {
	f := launch(t, Options{Bodies: 100})
	_, err := f.Query(context.Background(),
		"SELECT O.ra FROM SDSS:PhotoObject O WHERE AREA(185.0, -0.5, 60) AND AREA(185.0, -0.5, 60)")
	if err == nil {
		t.Fatal("duplicate AREA accepted")
	}
	pe, ok := AsParseError(err)
	if !ok {
		t.Fatalf("error is %T (%v), want *ParseError", err, err)
	}
	if pe.Category != ErrSemantic {
		t.Errorf("category = %q, want %q (%v)", pe.Category, ErrSemantic, pe)
	}
}
