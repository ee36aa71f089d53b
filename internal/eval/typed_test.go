package eval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// columnTypeOf derives a declared type for a test column: the uniform type
// of its non-NULL cells, or NullType (→ boxed vector) when cells mix.
func columnTypeOf(rows [][]value.Value, s int) value.Type {
	t := value.NullType
	for _, row := range rows {
		c := row[s]
		if c.IsNull() {
			continue
		}
		if t == value.NullType {
			t = c.Type()
		} else if t != c.Type() {
			return value.NullType
		}
	}
	return t
}

// tbatchFromRows transposes row-major test rows into a typed batch:
// uniform columns become native vectors (NULLs in the mask), mixed ones
// fall back to boxed — exactly what FillFromCells guarantees.
func tbatchFromRows(width, capacity int, rows [][]value.Value) *TBatch {
	b := NewTBatch(width, capacity)
	for s := 0; s < width; s++ {
		b.Col(s).FillFromCells(len(rows), columnTypeOf(rows, s), func(i int) value.Value { return rows[i][s] })
	}
	b.SetLen(len(rows))
	return b
}

// scalarRowResults evaluates the scalar program row by row, returning the
// per-row values and the first erroring row (-1 if none) — the reference
// the typed batch engine must reproduce exactly.
func scalarRowResults(prog *Program, rows [][]value.Value) (vals []value.Value, firstErr int, err error) {
	vals = make([]value.Value, len(rows))
	for i, row := range rows {
		v, verr := prog.Eval(row)
		if verr != nil {
			return vals, i, verr
		}
		vals[i] = v
	}
	return vals, -1, nil
}

// typedCompare holds the typed engine to the scalar reference results:
// identical values (and types) per row, the identical first erroring row,
// and Filter agreement — over the full batch and split into chunks of
// every size from 1 up, to shake out batch-boundary bugs.
func typedCompare(t *testing.T, src string, layout MapLayout, rows [][]value.Value, want []value.Value, wantErrRow int, wantErr error) {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	width := 0
	for _, s := range layout {
		if s+1 > width {
			width = s + 1
		}
	}
	prog, serr := Compile(e, layout)
	tprog, terr := CompileTyped(e, layout)
	if (serr != nil) != (terr != nil) {
		t.Fatalf("%q: scalar compile err=%v, typed compile err=%v", src, serr, terr)
	}
	if serr != nil {
		return
	}
	if !reflect.DeepEqual(prog.Refs(), tprog.Refs()) {
		t.Errorf("%q: scalar refs %v, typed refs %v", src, prog.Refs(), tprog.Refs())
	}

	for chunk := 1; chunk <= len(rows); chunk++ {
		ev := tprog.NewEval(chunk)
		for off := 0; off < len(rows); off += chunk {
			end := off + chunk
			if end > len(rows) {
				end = len(rows)
			}
			b := tbatchFromRows(width, chunk, rows[off:end])
			got, errRow, err := tprog.EvalVec(ev, b, ev.Seq(b.Len()))
			expErrRow := -1
			if wantErrRow >= off && wantErrRow < end {
				expErrRow = wantErrRow - off
			}
			if (err != nil) != (expErrRow >= 0) || errRow != expErrRow {
				t.Fatalf("%q chunk=%d off=%d: typed errRow=%d err=%v, scalar first error row %d (%v)",
					src, chunk, off, errRow, err, wantErrRow, wantErr)
			}
			limit := end - off
			if expErrRow >= 0 {
				limit = expErrRow
			}
			for i := 0; i < limit; i++ {
				w := want[off+i]
				g := got.ValueAt(i)
				if !value.Equal(w, g) || w.Type() != g.Type() {
					t.Fatalf("%q chunk=%d row %d: scalar=%v (%v), typed=%v (%v)",
						src, chunk, off+i, w, w.Type(), g, g.Type())
				}
			}
			b.Release()
			if wantErrRow >= 0 && wantErrRow < end {
				break
			}
		}
		ev.Release()
	}

	ev := tprog.NewEval(len(rows))
	b := tbatchFromRows(width, len(rows), rows)
	sel, errRow, err := tprog.Filter(ev, b, ev.Seq(len(rows)))
	if (err != nil) != (wantErrRow >= 0) || errRow != wantErrRow {
		t.Fatalf("%q: typed Filter errRow=%d err=%v, want row %d (%v)", src, errRow, err, wantErrRow, wantErr)
	}
	var wantSel []int
	for i := range rows {
		if wantErrRow >= 0 && i >= wantErrRow {
			break
		}
		if want[i].IsTrue() {
			wantSel = append(wantSel, i)
		}
	}
	if !reflect.DeepEqual(append([]int{}, sel...), append([]int{}, wantSel...)) {
		t.Errorf("%q: typed Filter sel=%v, want %v", src, sel, wantSel)
	}
	b.Release()
	ev.Release()
}

// typedRows is a homogeneous-column row set that drives every native
// kernel: int, float (with NaN and infinities), string and bool columns,
// NULL-heavy, plus int64 magnitudes beyond 2^53 where the engines' float
// widening makes distinct integers compare equal.
func typedRows() [][]value.Value {
	const big = int64(1) << 53
	return [][]value.Value{
		{value.String("GALAXY"), value.Float(12.5), value.Float(9), value.Float(-12.25), value.String("NGC 1275"), value.Int(7), value.Int(big)},
		{value.String("STAR"), value.Float(1.5), value.Float(1.25), value.Float(89.9), value.String("M31"), value.Int(0), value.Int(big + 1)},
		{value.Null, value.Null, value.Float(math.NaN()), value.Null, value.Null, value.Int(-1), value.Int(math.MinInt64)},
		{value.String(""), value.Null, value.Float(math.Inf(1)), value.Float(0), value.String("NGC%"), value.Null, value.Null},
		{value.String("QSO"), value.Float(-3), value.Null, value.Float(30), value.String("NGC 42"), value.Int(3), value.Int(4)},
	}
}

var typedExprs = []string{
	"O.type = 'GALAXY'",
	"O.type <> 'STAR' AND O.type < 'Z'",
	"(O.i_flux - T.i_flux) > 2",
	"O.i_flux + T.i_flux >= 10",
	"O.i_flux * 2 / 4 < T.i_flux",
	"x + n", "x - n", "x * n", "x % n", "x / n", "-x", "-O.dec",
	"x = n", "x <> n", "x < n", "x <= n", "x > n", "x >= n",
	// Widening: both sides int64 beyond 2^53 — equal as floats.
	"x = 9007199254740993", "x > 9007199254740992",
	// NaN compares equal to everything in this engine.
	"T.i_flux = 0", "T.i_flux < O.i_flux", "T.i_flux >= 1e308",
	"O.dec BETWEEN -30 AND 30",
	"O.type IN ('GALAXY', 'QSO')",
	"O.type IS NULL", "x IS NOT NULL",
	"NOT (O.i_flux > 2)", "NOT x", "NOT O.type",
	"O.type LIKE 'GAL%'", "name LIKE '%27%'", "name LIKE name", "x LIKE 'x'",
	"ABS(O.dec) < 30.0", "SQRT(O.i_flux) > 1", "FLOOR(O.dec) = -13", "ABS(x) > 0", "ABS(n)",
	"UPPER(name) = 'M31'", "LEN(name) > 3", "POWER(2, n) > 4",
	"COALESCE(O.i_flux, T.i_flux, 0) > 1",
	"O.type = 'GALAXY' AND O.i_flux > 2 AND ABS(O.dec) < 30 AND name LIKE 'NGC%'",
	"O.type = 'GALAXY' OR n > 3 OR x IS NULL",
	"x AND n", "x AND (n AND x)", "x OR (n OR NULL)",
	"n AND (x IS NULL AND NULL)",
	"x > 0 AND 1 / 0 = 1", "FALSE AND 1 / 0 = 1", "TRUE OR 1 / 0 = 1",
	"x % (n - n)", "n / (n - n)",
	"name > 2", "x = name", "-name",
}

func TestTypedMatchesScalarEngines(t *testing.T) {
	for _, rows := range [][][]value.Value{typedRows(), stdRows()} {
		for _, src := range typedExprs {
			e, err := sqlparse.ParseExpr(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			prog, serr := Compile(e, stdLayout)
			if serr != nil {
				t.Fatalf("compile %q: %v", src, serr)
			}
			want, wantErrRow, wantErr := scalarRowResults(prog, rows)
			typedCompare(t, src, stdLayout, rows, want, wantErrRow, wantErr)
		}
	}
}

// threeWayCompare asserts the interpreter, the compiled scalar program and
// the typed batch program agree on every row: compileAndCompare holds the
// scalar program to the interpreter, and typedCompare holds the typed
// program to the scalar reference — values, types and first erroring row.
func threeWayCompare(t *testing.T, src string, layout MapLayout, rows [][]value.Value) {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	prog, err := Compile(e, layout)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	compileAndCompare(t, src, layout, rows)
	want, wantErrRow, wantErr := scalarRowResults(prog, rows)
	typedCompare(t, src, layout, rows, want, wantErrRow, wantErr)
}

func TestBatchMatchesScalarAndInterpreter(t *testing.T) {
	exprs := []string{
		// Literals, arithmetic, typing.
		"1 + 2", "7 / 2", "7 % 3", "2 * 3 + 1", "-5", "- (2.5)", "1.5e2",
		"'a' + 'b'", "TRUE", "NULL", "NULL + 1",
		// Comparisons and three-valued logic.
		"2 = 2", "2 <> 3", "2 < 3", "3 <= 3", "2 > 3", "2 >= 3", "2 = NULL",
		"TRUE AND FALSE", "TRUE OR FALSE", "FALSE AND NULL", "TRUE OR NULL",
		"TRUE AND NULL", "FALSE OR NULL", "NOT TRUE", "NOT NULL",
		// Column-driven vectorized forms.
		"O.type = 'GALAXY'",
		"(O.i_flux - T.i_flux) > 2",
		"O.type = 'GALAXY' AND (O.i_flux - T.i_flux) > 2",
		"O.type = 'GALAXY' OR n > 3",
		"x + n", "x * n", "x % n", "x / n", "-x", "x - n",
		"ABS(O.dec) < 30.0", "ABS(x)",
		"O.dec BETWEEN -30 AND 30",
		"n BETWEEN x AND 10",
		"O.type IN ('GALAXY', 'QSO')",
		"n IN (1, 7, NULL)", "n IN (x, 0)",
		"O.type IS NULL", "O.type IS NOT NULL", "x IS NULL",
		"O.type LIKE 'GAL%'", "name LIKE 'NGC%'", "name LIKE name", "n LIKE 'x'",
		"COALESCE(O.type, name, 'none')",
		"UPPER(name)", "LOWER(O.type)", "LEN(name)", "POWER(2, n)",
		"NOT (O.type = 'GALAXY' OR n > 3)",
		"x = 1 OR x = 2 OR n IS NULL",
		"(O.i_flux + T.i_flux) / 2 >= T.i_flux",
		// Error-bearing rows: mixed-type comparisons and arithmetic, bad
		// operands partway down the batch.
		"x > 0", "x + 1 > n", "name > 2", "x = name",
		"n / (n - n)", "x % (n - n)",
		"-name", "ABS(name) > 0",
		// Constant folding interplay, including constant errors that must
		// fire at evaluation time on the first selected row.
		"1 / 0", "1 % 0", "x > 0 AND 1 / 0 = 1", "FALSE AND 1 / 0 = 1",
		"TRUE OR 1 / 0 = 1", "1 = 1 AND O.type = 'GALAXY'",
		// Right-nested AND/OR with non-bool and NULL operands: value.And
		// is not associative there, so flattening the right side would
		// re-associate and diverge (regression: the batch compiler must
		// keep a nested right AND as a single member).
		"x AND (n AND x)", "x AND ((n > 0) AND NULL)",
		"n AND (x IS NULL AND NULL)", "(x AND n) AND x",
		"x AND (x > 0 AND n / (n - n) > 0)",
		"x OR (n OR NULL)", "x OR ((n > 0) OR NULL)", "(x OR n) OR NULL",
		"x OR (x > 0 OR n / (n - n) > 0)",
	}
	rows := stdRows()
	for _, src := range exprs {
		threeWayCompare(t, src, stdLayout, rows)
	}
}

func TestBatchSizeKnob(t *testing.T) {
	old := BatchSize()
	defer SetBatchSize(old)
	SetBatchSize(3)
	if BatchSize() != 3 {
		t.Errorf("BatchSize = %d", BatchSize())
	}
	SetBatchSize(0) // invalid selects the default
	if BatchSize() != DefaultBatchSize {
		t.Errorf("BatchSize after reset = %d", BatchSize())
	}
}

func TestTypedCompileReportsBindingErrors(t *testing.T) {
	cases := []string{
		"nosuch = 1",
		"Q.nosuch = 1",
		"NOSUCHFN(1)",
		"ABS(1, 2)",
		"POWER(1)",
		"FALSE AND nosuch = 1", // dead side still binding-checked
		"TRUE OR nosuch = 1",
	}
	for _, src := range cases {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := CompileTyped(e, stdLayout); err == nil {
			t.Errorf("CompileTyped(%q) succeeded, want error", src)
		}
	}
}

func TestTypedConstantFolding(t *testing.T) {
	e, err := sqlparse.ParseExpr("1 + 2 * 3 = 7 AND 2 < 3")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Refs()) != 0 {
		t.Errorf("constant program references slots %v", p.Refs())
	}
	ev := p.NewEval(4)
	b := NewTBatch(7, 4)
	b.SetLen(3)
	sel, errRow, ferr := p.Filter(ev, b, ev.Seq(3))
	if ferr != nil || errRow != -1 || len(sel) != 3 {
		t.Errorf("constant TRUE filter = %v, %d, %v", sel, errRow, ferr)
	}

	e, err = sqlparse.ParseExpr("1 / 0 = 1")
	if err != nil {
		t.Fatal(err)
	}
	p, err = CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := p.NewEval(4)
	if _, errRow, ferr := p.Filter(ev2, b, ev2.Seq(3)); ferr == nil || errRow != 0 {
		t.Errorf("constant error filter: errRow=%d err=%v", errRow, ferr)
	}
	if _, errRow, ferr := p.Filter(ev2, b, ev2.Seq(0)); ferr != nil || errRow != -1 {
		t.Errorf("constant error over empty selection: errRow=%d err=%v", errRow, ferr)
	}
	ev.Release()
	ev2.Release()
}

func TestNilTypedProgram(t *testing.T) {
	p, err := CompileTyped(nil, stdLayout)
	if err != nil {
		t.Fatalf("CompileTyped(nil) = %v", err)
	}
	if p != nil {
		t.Fatal("CompileTyped(nil) returned a program")
	}
	if p.Refs() != nil {
		t.Error("nil program has refs")
	}
	ev := p.NewEval(8)
	b := NewTBatch(2, 8)
	b.SetLen(5)
	sel, errRow, ferr := p.Filter(ev, b, ev.Seq(5))
	if ferr != nil || errRow != -1 || len(sel) != 5 {
		t.Errorf("nil program Filter = %v, %d, %v; want identity", sel, errRow, ferr)
	}
	if _, _, err := p.EvalVec(ev, b, ev.Seq(5)); err == nil {
		t.Error("nil program EvalVec should error")
	}
	ev.Release()
}

func TestTypedUnfilledSlot(t *testing.T) {
	e, err := sqlparse.ParseExpr("x = 1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}
	ev := p.NewEval(4)
	b := NewTBatch(7, 4) // slot 6 ("x") never filled
	b.SetLen(2)
	if _, errRow, ferr := p.Filter(ev, b, ev.Seq(2)); ferr == nil || errRow != -1 {
		t.Errorf("unfilled slot: errRow=%d err=%v; want structural error with errRow -1", errRow, ferr)
	}
	narrow := NewTBatch(3, 4)
	narrow.SetLen(2)
	if _, _, ferr := p.Filter(ev, narrow, ev.Seq(2)); ferr == nil {
		t.Error("narrow typed batch accepted")
	}
	ev.Release()
}

// TestVectorViewsAndBuffers covers the Vector fill modes directly: views,
// owned buffers, broadcast and the boxed fallback of FillFromCells.
func TestVectorViewsAndBuffers(t *testing.T) {
	var v Vector
	v.SetIntView([]int64{1, 2, 3}, []bool{false, true, false})
	if v.Kind != VecInt || !v.NullAt(1) || v.ValueAt(2).AsInt() != 3 {
		t.Fatalf("int view: %+v", v)
	}
	v.Broadcast(value.String("x"), 4)
	if v.Kind != VecStr || v.ValueAt(3).AsString() != "x" {
		t.Fatalf("broadcast: %+v", v)
	}
	v.Broadcast(value.Null, 2)
	if !v.NullAt(0) || !v.NullAt(1) {
		t.Fatalf("null broadcast: %+v", v)
	}
	// Declared INT but a FLOAT cell arrives: exact boxed fallback.
	cells := []value.Value{value.Int(1), value.Float(2.5), value.Null}
	v.FillFromCells(3, value.IntType, func(i int) value.Value { return cells[i] })
	if v.Kind != VecBoxed {
		t.Fatalf("mixed cells should fall back to boxed, got kind %d", v.Kind)
	}
	for i, c := range cells {
		if g := v.ValueAt(i); !value.Equal(g, c) || g.Type() != c.Type() {
			t.Fatalf("boxed fallback cell %d: %v != %v", i, g, c)
		}
	}
	v.Release()
	if v.Kind != VecBoxed || v.Boxed != nil {
		t.Fatalf("release left payload: %+v", v)
	}
}

func TestAnalyzePrune(t *testing.T) {
	types := []value.Type{value.IntType, value.FloatType, value.StringType}
	layout := MapLayout{"id": 0, "flux": 1, "name": 2}
	slotType := func(s int) value.Type { return types[s] }
	parse := func(src string) sqlparse.Expr {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return e
	}

	ps := AnalyzePrune(parse("id > 100 AND flux <= 2.5 AND name = 'x'"), layout, slotType)
	if !ps.Safe || len(ps.Pruners) != 3 {
		t.Fatalf("pruners = %+v", ps)
	}
	if p := ps.Pruners[0]; p.Slot != 0 || p.Op != ">" || p.Const != 100 || !p.PrefixSafe {
		t.Errorf("pruner 0 = %+v", p)
	}
	if p := ps.Pruners[1]; p.Slot != 1 || p.Op != "<=" || p.Const != 2.5 || !p.PrefixSafe {
		t.Errorf("pruner 1 = %+v", p)
	}
	if p := ps.Pruners[2]; p.Slot != 2 || p.Op != "=" || p.Str != "x" || !p.IsStr || !p.PrefixSafe {
		t.Errorf("pruner 2 = %+v", p)
	}

	// Reversed operand order flips the comparison.
	ps = AnalyzePrune(parse("100 >= id"), layout, slotType)
	if len(ps.Pruners) != 1 || ps.Pruners[0].Op != "<=" || ps.Pruners[0].Const != 100 {
		t.Fatalf("flipped pruner = %+v", ps.Pruners)
	}

	// An erroring conjunct before the pruner clears PrefixSafe and Safe; a
	// pruner before it stays prefix-safe.
	ps = AnalyzePrune(parse("id > 5 AND flux / 0 > 1 AND id < 3"), layout, slotType)
	if ps.Safe || len(ps.Pruners) != 2 {
		t.Fatalf("pruners = %+v", ps)
	}
	if !ps.Pruners[0].PrefixSafe || ps.Pruners[1].PrefixSafe {
		t.Errorf("prefix safety = %+v", ps.Pruners)
	}

	// String comparisons prune; non-constant comparisons don't; OR spines
	// have no top-level conjuncts to mine.
	ps = AnalyzePrune(parse("name > 'a' AND id < flux"), layout, slotType)
	if len(ps.Pruners) != 1 || !ps.Pruners[0].IsStr || ps.Pruners[0].Op != ">" || ps.Pruners[0].Str != "a" {
		t.Errorf("unexpected pruners %+v", ps.Pruners)
	}
	// LIKE with a literal prefix prunes to the [prefix, successor) range.
	ps = AnalyzePrune(parse("name LIKE 'NGC%'"), layout, slotType)
	if len(ps.Pruners) != 1 || ps.Pruners[0].Op != OpLikePrefix || ps.Pruners[0].Str != "NGC" || ps.Pruners[0].Hi != "NGD" {
		t.Errorf("LIKE pruners %+v", ps.Pruners)
	}
	if ps := AnalyzePrune(parse("id > 5 OR flux < 1"), layout, slotType); len(ps.Pruners) != 0 || !ps.Safe {
		t.Errorf("OR pruners %+v safe=%v", ps.Pruners, ps.Safe)
	}
	if ps := AnalyzePrune(nil, layout, slotType); len(ps.Pruners) != 0 || ps.Safe {
		t.Errorf("nil expr prune set %+v", ps)
	}

	// NeverTrue block tests.
	checks := []struct {
		op       string
		c        float64
		min, max float64
		want     bool
	}{
		{"=", 5, 6, 10, true}, {"=", 7, 6, 10, false},
		{"<", 5, 5, 10, true}, {"<", 6, 5, 10, false},
		{"<=", 5, 6, 10, true}, {"<=", 6, 6, 10, false},
		{">", 10, 5, 10, true}, {">", 9, 5, 10, false},
		{">=", 11, 5, 10, true}, {">=", 10, 5, 10, false},
		{"<>", 5, 5, 5, true}, {"<>", 5, 5, 6, false},
	}
	for _, c := range checks {
		p := Pruner{Op: c.op, Const: c.c}
		if got := p.NeverTrue(c.min, c.max); got != c.want {
			t.Errorf("NeverTrue(%s %g over [%g,%g]) = %v, want %v", c.op, c.c, c.min, c.max, got, c.want)
		}
	}
}

func TestTypedFilterSteadyStateAllocs(t *testing.T) {
	e, err := sqlparse.ParseExpr(benchExpr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTyped(e, stdLayout)
	if err != nil {
		t.Fatal(err)
	}
	rows := benchScanRows(1024)
	b := tbatchFromRows(7, 1024, rows)
	ev := p.NewEval(1024)
	defer ev.Release()
	defer b.Release()
	if _, _, err := p.Filter(ev, b, ev.Seq(b.Len())); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := p.Filter(ev, b, ev.Seq(b.Len())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("typed Filter allocates %.1f per batch in steady state, want 0", allocs)
	}
}

// fuzzTypedRows generates NULL-heavy rows with one stable type per column
// (so the typed engine's native kernels, not just the boxed fallback, see
// the fuzz traffic), including int magnitudes around 2^53 that exercise
// the float-widening comparisons.
func fuzzTypedRows(nCols, nRows int, seed int64) [][]value.Value {
	rng := rand.New(rand.NewSource(seed))
	colKind := make([]int, nCols)
	for i := range colKind {
		colKind[i] = rng.Intn(4)
	}
	strs := []string{"", "GALAXY", "NGC 1275", "a%b_c", "%"}
	rows := make([][]value.Value, nRows)
	for r := range rows {
		row := make([]value.Value, nCols)
		for i := range row {
			if rng.Intn(3) == 0 { // NULL-heavy
				row[i] = value.Null
				continue
			}
			switch colKind[i] {
			case 0:
				row[i] = value.Int([]int64{0, 1, -7, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}[rng.Intn(7)])
			case 1:
				row[i] = value.Float([]float64{0, -0.5, 2.5, math.NaN(), math.Inf(-1), 1e308}[rng.Intn(6)])
			case 2:
				row[i] = value.String(strs[rng.Intn(len(strs))])
			default:
				row[i] = value.Bool(rng.Intn(2) == 0)
			}
		}
		rows[r] = row
	}
	return rows
}

// FuzzBatchDifferential is the three-way differential fuzzer: on every
// parseable expression and random row set, the interpreter, the scalar
// program and the typed batch program must agree on values, and the
// compiled engines must fail on the identical first row. Rows come from
// two generators: the historical per-cell-random one (mixed-type columns,
// driving the typed engine's boxed fallbacks) and a NULL-heavy one with a
// stable type per column (driving the native int64/float64/string/bool
// kernels, including the 2^53 float-widening edge). Seeds reuse the
// FuzzParseExpr corpus, like FuzzCompileDifferential.
func FuzzBatchDifferential(f *testing.F) {
	seeds := []string{
		`(O.i_flux - T.i_flux) > 2`,
		`1 + 2 * 3 = 7 AND 2 < 3 OR FALSE`,
		`a.name = 'O''Neill'`,
		`ABS(O.a + T.b) > 1 AND O.c IS NULL AND T.d IN (1, O.e) AND O.f BETWEEN 1 AND 2`,
		`x LIKE '%''%'`,
		`COALESCE(a, b, 1) % 2 = 0`,
		`NOT NOT NOT x`,
		`a / b > c OR d % e = 0`,
		// Typed fast paths and their fallbacks: NULL-heavy mixed int/float
		// comparisons, widening equality, native AND/OR spines.
		`a = b AND a <= 9007199254740993 AND b >= -5`,
		`a IS NULL OR a > 0.5 AND b <> 2`,
		`a + 0.5 > b AND a % 3 = 0`,
		`a < b OR b IS NULL AND a * 2 >= b`,
	}
	for _, s := range seeds {
		f.Add(s, int64(1))
	}
	for _, s := range parseExprCorpus(f) {
		f.Add(s, int64(2))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			return
		}
		cols := sqlparse.Columns(e)
		if len(cols) > 64 {
			return
		}
		layout := MapLayout{}
		for i, c := range cols {
			key := c.Column
			if c.Table != "" {
				key = c.Table + "." + c.Column
			}
			layout[key] = i
		}
		prog, serr := Compile(e, layout)
		if _, terr := CompileTyped(e, layout); (serr != nil) != (terr != nil) {
			t.Fatalf("%q: scalar compile err=%v, typed compile err=%v", src, serr, terr)
		}
		if serr != nil {
			return
		}

		const nRows = 5
		check := func(rows [][]value.Value) {
			want, wantErrRow, wantErr := scalarRowResults(prog, rows)
			// Interpreter vs scalar: error presence and values per row (the
			// interpreter has no batch, so only rows the scalar scan reaches).
			for r, row := range rows {
				if wantErrRow >= 0 && r > wantErrRow {
					break
				}
				iv, ierr := Eval(e, envFromLayout(layout, row))
				if (ierr != nil) != (wantErrRow == r) {
					t.Fatalf("%q row %d: interpreter err=%v, scalar err row=%d", src, r, ierr, wantErrRow)
				}
				if ierr == nil && (!value.Equal(iv, want[r]) || iv.Type() != want[r].Type()) {
					t.Fatalf("%q row %d: interpreter=%v (%v), scalar=%v (%v)", src, r, iv, iv.Type(), want[r], want[r].Type())
				}
			}
			// Typed batch vs the same reference (all chunkings + Filter).
			typedCompare(t, src, layout, rows, want, wantErrRow, wantErr)
		}

		rows := make([][]value.Value, nRows)
		for r := range rows {
			rows[r] = fuzzRow(len(cols), seed+int64(r))
		}
		check(rows)
		check(fuzzTypedRows(len(cols), nRows, seed))
	})
}

// benchScanRows builds the 10k-row-style selective scan input: roughly 5%
// of rows pass benchExpr, with every conjunct selective enough that the
// batch engine's shrinking selection vectors matter.
func benchScanRows(n int) [][]value.Value {
	rng := rand.New(rand.NewSource(42))
	rows := make([][]value.Value, n)
	types := []string{"GALAXY", "STAR", "QSO"}
	for i := range rows {
		name := "UGC 100"
		if rng.Intn(2) == 0 {
			name = fmt.Sprintf("NGC %d", rng.Intn(8000))
		}
		rows[i] = []value.Value{
			value.String(types[rng.Intn(len(types))]), // O.type
			value.Float(rng.Float64() * 20),           // O.i_flux
			value.Float(rng.Float64() * 20),           // T.i_flux
			value.Float(rng.Float64()*180 - 90),       // O.dec
			value.String(name),                        // name
			value.Int(int64(rng.Intn(20))),            // n
			value.Int(int64(rng.Intn(200)) - 100),     // x
		}
	}
	return rows
}

// BenchmarkCompiledExprScan is the row-at-a-time engine over a 10k-row
// selective scan: one EvalBool per row through the closure tree. This is
// the baseline BenchmarkTypedBatchExpr is measured against (same rows,
// same predicate, same per-op work).
func BenchmarkCompiledExprScan(b *testing.B) {
	e, err := sqlparse.ParseExpr(benchExpr)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(e, stdLayout)
	if err != nil {
		b.Fatal(err)
	}
	rows := benchScanRows(10000)
	want := 0
	for _, row := range rows {
		ok, err := prog.EvalBool(row)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			want++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for _, row := range rows {
			ok, err := prog.EvalBool(row)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				got++
			}
		}
		if got != want {
			b.Fatalf("got %d, want %d", got, want)
		}
	}
}

// BenchmarkTypedBatchExpr is the typed engine over the same 10k-row
// selective scan as BenchmarkCompiledExprScan (same rows, same predicate),
// in batches of 1024 with a reused evaluator: native column vectors,
// shrinking selection vectors through the conjunction, 0 allocs per batch
// in steady state. This is the headline number the BENCH_scan.json
// trajectory tracks.
func BenchmarkTypedBatchExpr(b *testing.B) {
	e, err := sqlparse.ParseExpr(benchExpr)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := CompileTyped(e, stdLayout)
	if err != nil {
		b.Fatal(err)
	}
	rows := benchScanRows(10000)
	const batchCap = 1024
	var batches []*TBatch
	for off := 0; off < len(rows); off += batchCap {
		end := off + batchCap
		if end > len(rows) {
			end = len(rows)
		}
		batches = append(batches, tbatchFromRows(7, batchCap, rows[off:end]))
	}
	ev := prog.NewEval(batchCap)
	defer ev.Release()
	want := 0
	for _, bt := range batches {
		sel, _, err := prog.Filter(ev, bt, ev.Seq(bt.Len()))
		if err != nil {
			b.Fatal(err)
		}
		want += len(sel)
	}
	if want == 0 || want > len(rows)/5 {
		b.Fatalf("scan not selective: %d of %d rows pass", want, len(rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for _, bt := range batches {
			sel, _, err := prog.Filter(ev, bt, ev.Seq(bt.Len()))
			if err != nil {
				b.Fatal(err)
			}
			got += len(sel)
		}
		if got != want {
			b.Fatalf("got %d, want %d", got, want)
		}
	}
}
