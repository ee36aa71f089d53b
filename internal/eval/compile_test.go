package eval

import (
	"reflect"
	"testing"

	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// compileAndCompare holds the compiled program to the reference
// interpreter on every row, alone and in batches of every chunking. A
// compile error is allowed only where the interpreter also errors on every
// row: the compiler binds eagerly, but with every column bound by the
// layout the remaining compile errors (unknown function, arity, *) are
// exactly the row-independent interpreter errors.
func compileAndCompare(t *testing.T, src string, layout MapLayout, rows [][]value.Value) {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if _, cerr := CompileTyped(e, layout); cerr != nil {
		for ri, row := range rows {
			if iv, ierr := Eval(e, envFromLayout(layout, row)); ierr == nil {
				t.Errorf("%q: compile failed (%v) but interpreter evaluated row %d to %v", src, cerr, ri, iv)
			}
		}
		return
	}
	typedRowwise(t, src, layout, rows)
	typedCompare(t, src, layout, rows)
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	exprs := []string{
		// Literals, arithmetic, typing.
		"1 + 2", "7 / 2", "7 % 3", "2 * 3 + 1", "-5", "- (2.5)", "1.5e2",
		"'a' + 'b'", "TRUE", "NULL", "NULL + 1", "1 / 0", "1 % 0",
		// Comparisons and three-valued logic.
		"2 = 2", "2 <> 3", "2 < 3", "3 <= 3", "2 > 3", "2 >= 3", "2 = NULL",
		"TRUE AND FALSE", "TRUE OR FALSE", "FALSE AND NULL", "TRUE OR NULL",
		"TRUE AND NULL", "FALSE OR NULL", "NOT TRUE", "NOT NULL",
		// Column-driven forms.
		"O.type = 'GALAXY'",
		"(O.i_flux - T.i_flux) > 2",
		"O.type = 'GALAXY' AND (O.i_flux - T.i_flux) > 2",
		"ABS(O.dec) < 30.0",
		"ABS(x)",
		"x + n", "x * n", "x % n", "x / n", "-x",
		"O.type LIKE 'GAL%'",
		"name LIKE 'NGC%'",
		"name LIKE name",
		"O.type LIKE name",
		"n LIKE 'x'",
		"O.dec BETWEEN -30 AND 30",
		"n BETWEEN x AND 10",
		"O.type IN ('GALAXY', 'QSO')",
		"n IN (1, 7, NULL)",
		"n IN (x, 0)",
		"O.type IS NULL", "O.type IS NOT NULL",
		"T.type = 'GALAXY'", // no bare "type" column: a compile error, and the interpreter errors on every row
		"COALESCE(O.type, name, 'none')",
		"COALESCE(NULL, NULL)",
		"UPPER(name)", "LOWER(O.type)", "LEN(name)", "LENGTH(n)",
		"SQRT(O.i_flux)", "FLOOR(O.dec)", "CEIL(O.dec)", "CEILING(O.dec)",
		"LOG(O.i_flux)", "LOG10(O.i_flux)", "EXP(n)", "SIN(O.dec)", "COS(O.dec)",
		"RADIANS(O.dec)", "DEGREES(O.dec)", "POWER(2, n)", "POW(O.i_flux, 2)",
		"UPPER(n)", // historical wart: non-strings read as ""
		"ABS('x')", "1 = 'x'", "-'x'", "1 LIKE 'x'",
		"NOT (O.type = 'GALAXY' OR n > 3)",
		"x = 1 OR x = 2 OR n IS NULL",
		"(O.i_flux + T.i_flux) / 2 >= T.i_flux",
	}
	for _, rows := range [][][]value.Value{stdRows(), decidedRows()} {
		for _, src := range exprs {
			compileAndCompare(t, src, stdLayout, rows)
		}
	}
}

// TestCompileReportsBindingErrors checks eager binding: the interpreter
// short-circuits around an unknown column on the dead side of AND/OR, the
// compiler rejects the predicate up front.
func TestCompileReportsBindingErrors(t *testing.T) {
	cases := []string{
		"FALSE AND nosuch = 1",
		"TRUE OR nosuch = 1",
	}
	for _, src := range cases {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Eval(e, MapEnv{}); err != nil {
			t.Errorf("interpreter on %q: %v; want a short-circuited result", src, err)
		}
		if _, err := CompileTyped(e, stdLayout); err == nil {
			t.Errorf("CompileTyped(%q) succeeded, want error", src)
		}
	}
}

func TestCompiledConstantFolding(t *testing.T) {
	// Short-circuit folds are exact even when the other side cannot
	// evaluate, and the dead side's slots are neither reported nor read.
	p := mustCompile(t, "FALSE AND x = 1", stdLayout)
	if len(p.Refs()) != 0 {
		t.Errorf("FALSE AND x = 1 still references %v", p.Refs())
	}

	// Constant subtrees that error keep erroring at Eval time, not at
	// Compile time, and only when a row reaches them, so data-dependent
	// behavior (e.g. zero-row scans) is unchanged.
	p = mustCompile(t, "x > 0 AND 1 / 0 = 1", stdLayout)
	ev := p.NewEval(2)
	b := tbatchFromRows(7, 2, [][]value.Value{
		{value.Null, value.Null, value.Null, value.Null, value.Null, value.Null, value.Int(-1)},
		{value.Null, value.Null, value.Null, value.Null, value.Null, value.Null, value.Int(1)},
	})
	if _, errRow, ferr := p.Filter(ev, b, ev.Seq(1)); ferr != nil || errRow != -1 {
		t.Errorf("1/0 behind a FALSE guard: errRow=%d err=%v; want no error", errRow, ferr)
	}
	if _, errRow, ferr := p.Filter(ev, b, ev.Seq(2)); ferr == nil || errRow != 1 {
		t.Errorf("1/0 behind a TRUE guard: errRow=%d err=%v; want the error at row 1", errRow, ferr)
	}
	b.Release()
	ev.Release()
}

func mustCompile(t *testing.T, src string, layout Layout) *TypedProgram {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := CompileTyped(e, layout)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return p
}

// TestNilProgram checks that an absent predicate compiles to the nil
// program, which keeps exactly the rows it is given — sparse, empty, or
// over a batch of any width, since it binds no column.
func TestNilProgram(t *testing.T) {
	p, err := CompileTyped(nil, stdLayout)
	if err != nil || p != nil {
		t.Fatalf("CompileTyped(nil) = %v, %v; want nil program", p, err)
	}
	ev := p.NewEval(8)
	b := NewTBatch(0, 8)
	b.SetLen(6)
	for _, sel := range [][]int{{1, 3, 4}, {}} {
		got, errRow, ferr := p.Filter(ev, b, sel)
		if ferr != nil || errRow != -1 || !reflect.DeepEqual(got, sel) {
			t.Errorf("nil program Filter(%v) = %v, %d, %v; want the selection unchanged", sel, got, errRow, ferr)
		}
	}
	ev.Release()
}

func TestProgramRowWidthCheck(t *testing.T) {
	p := mustCompile(t, "x = 1", stdLayout)
	ev := p.NewEval(4)
	// A batch one slot too narrow for the program errors, never panics.
	short := NewTBatch(6, 4)
	short.SetLen(2)
	if _, errRow, verr := p.EvalVec(ev, short, ev.Seq(2)); verr == nil || errRow != -1 {
		t.Errorf("batch one slot short: errRow=%d err=%v; want structural error", errRow, verr)
	}
	ev.Release()
}
