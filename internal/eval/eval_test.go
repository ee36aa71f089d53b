package eval

import (
	"strconv"
	"strings"
	"testing"

	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

func evalStr(t *testing.T, src string, env Env) value.Value {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func evalErr(t *testing.T, src string, env Env) error {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	_, err = Eval(e, env)
	if err == nil {
		t.Fatalf("eval %q: expected error", src)
	}
	return err
}

func TestLiteralsAndArithmetic(t *testing.T) {
	cases := map[string]value.Value{
		"1 + 2":                 value.Int(3),
		"7 / 2":                 value.Float(3.5),
		"7 % 3":                 value.Int(1),
		"2 * 3 + 1":             value.Int(7),
		"2 + 3 * 2":             value.Int(8),
		"(2 + 3) * 2":           value.Int(10),
		"-5":                    value.Int(-5),
		"- (2.5)":               value.Float(-2.5),
		"1.5e2":                 value.Float(150),
		"'a' + 'b'":             value.String("ab"),
		"TRUE":                  value.Bool(true),
		"NULL":                  value.Null,
		"NULL + 1":              value.Null,
		"2 = 2":                 value.Bool(true),
		"2 <> 3":                value.Bool(true),
		"2 < 3":                 value.Bool(true),
		"3 <= 3":                value.Bool(true),
		"2 > 3":                 value.Bool(false),
		"2 >= 3":                value.Bool(false),
		"2 = NULL":              value.Null,
		"'abc' LIKE 'a%'":       value.Bool(true),
		"'abc' LIKE 'a_c'":      value.Bool(true),
		"'abc' LIKE 'b%'":       value.Bool(false),
		"'a.c' LIKE 'a.c'":      value.Bool(true),
		"'axc' LIKE 'a.c'":      value.Bool(false), // dot is literal, not regex
		"NULL LIKE 'a%'":        value.Null,
		"1 BETWEEN 0 AND 2":     value.Bool(true),
		"3 BETWEEN 0 AND 2":     value.Bool(false),
		"3 NOT BETWEEN 0 AND 2": value.Bool(true),
		"2 IN (1, 2, 3)":        value.Bool(true),
		"5 IN (1, 2, 3)":        value.Bool(false),
		"5 NOT IN (1, 2, 3)":    value.Bool(true),
		"5 IN (1, NULL)":        value.Null,
		"2 IN (2, NULL)":        value.Bool(true),
		"NULL IS NULL":          value.Bool(true),
		"1 IS NULL":             value.Bool(false),
		"1 IS NOT NULL":         value.Bool(true),
		"NOT TRUE":              value.Bool(false),
		"NOT NULL":              value.Null,
		"TRUE AND FALSE":        value.Bool(false),
		"TRUE OR FALSE":         value.Bool(true),
		"FALSE AND NULL":        value.Bool(false),
		"TRUE OR NULL":          value.Bool(true),
		"TRUE AND NULL":         value.Null,
		"FALSE OR NULL":         value.Null,
	}
	for src, want := range cases {
		got := evalStr(t, src, MapEnv{})
		if !value.Equal(got, want) || got.Type() != want.Type() {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right side references an unknown column but must not be reached.
	env := MapEnv{"x": value.Int(1)}
	if got := evalStr(t, "FALSE AND nosuch = 1", env); got.IsTrue() {
		t.Error("FALSE AND ... should be false")
	}
	if got := evalStr(t, "TRUE OR nosuch = 1", env); !got.IsTrue() {
		t.Error("TRUE OR ... should be true")
	}
	evalErr(t, "TRUE AND nosuch = 1", env)
}

func TestColumnResolution(t *testing.T) {
	env := MapEnv{
		"O.flux": value.Float(10.5),
		"type":   value.String("GALAXY"),
	}
	if got := evalStr(t, "O.flux > 10", env); !got.IsTrue() {
		t.Error("qualified lookup failed")
	}
	if got := evalStr(t, "type = 'GALAXY'", env); !got.IsTrue() {
		t.Error("bare lookup failed")
	}
	// A qualified reference may fall back to the bare name.
	if got := evalStr(t, "T.type = 'GALAXY'", env); !got.IsTrue() {
		t.Error("fallback lookup failed")
	}
	err := evalErr(t, "O.nosuch = 1", env)
	if !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("error = %v", err)
	}
}

func TestPaperPredicates(t *testing.T) {
	// The two residual predicates from the paper's example query.
	env := MapEnv{
		"O.type":   value.String("GALAXY"),
		"O.i_flux": value.Float(12.5),
		"T.i_flux": value.Float(9.0),
	}
	if got := evalStr(t, "O.type = 'GALAXY'", env); !got.IsTrue() {
		t.Error("type predicate")
	}
	if got := evalStr(t, "(O.i_flux - T.i_flux) > 2", env); !got.IsTrue() {
		t.Error("flux predicate")
	}
	env["T.i_flux"] = value.Float(11.0)
	if got := evalStr(t, "(O.i_flux - T.i_flux) > 2", env); got.IsTrue() {
		t.Error("flux predicate should now fail")
	}
}

func TestFunctions(t *testing.T) {
	cases := map[string]value.Value{
		"ABS(-3)":              value.Int(3),
		"ABS(-2.5)":            value.Float(2.5),
		"SQRT(9)":              value.Float(3),
		"FLOOR(2.7)":           value.Float(2),
		"CEIL(2.1)":            value.Float(3),
		"CEILING(2.1)":         value.Float(3),
		"POWER(2, 10)":         value.Float(1024),
		"POW(2, 3)":            value.Float(8),
		"LOG(1)":               value.Float(0),
		"LOG10(100)":           value.Float(2),
		"EXP(0)":               value.Float(1),
		"SIN(0)":               value.Float(0),
		"COS(0)":               value.Float(1),
		"DEGREES(0)":           value.Float(0),
		"RADIANS(0)":           value.Float(0),
		"UPPER('ab')":          value.String("AB"),
		"LOWER('AB')":          value.String("ab"),
		"LEN('abc')":           value.Int(3),
		"LENGTH('abc')":        value.Int(3),
		"COALESCE(NULL, 2)":    value.Int(2),
		"COALESCE(NULL, NULL)": value.Null,
		"ABS(NULL)":            value.Null,
		"UPPER(NULL)":          value.Null,
	}
	for src, want := range cases {
		got := evalStr(t, src, MapEnv{})
		if !value.Equal(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestFunctionErrors(t *testing.T) {
	evalErr(t, "NOSUCHFN(1)", MapEnv{})
	evalErr(t, "ABS(1, 2)", MapEnv{})
	evalErr(t, "ABS('x')", MapEnv{})
	evalErr(t, "POWER(1)", MapEnv{})
	evalErr(t, "POWER('a', 'b')", MapEnv{})
	evalErr(t, "1 LIKE 'x'", MapEnv{})
	evalErr(t, "1 / 0", MapEnv{})
	evalErr(t, "1 = 'x'", MapEnv{})
	evalErr(t, "-'x'", MapEnv{})
}

func TestEvalBool(t *testing.T) {
	ok, err := EvalBool(nil, MapEnv{})
	if err != nil || !ok {
		t.Error("nil predicate should be true")
	}
	e, _ := sqlparse.ParseExpr("NULL = 1")
	ok, err = EvalBool(e, MapEnv{})
	if err != nil || ok {
		t.Error("UNKNOWN predicate should be false")
	}
	e, _ = sqlparse.ParseExpr("1 = 1")
	ok, err = EvalBool(e, MapEnv{})
	if err != nil || !ok {
		t.Error("true predicate")
	}
}

func TestEnvFunc(t *testing.T) {
	env := EnvFunc(func(table, column string) (value.Value, error) {
		return value.String(table + "." + column), nil
	})
	got := evalStr(t, "a.b = 'a.b'", env)
	if !got.IsTrue() {
		t.Error("EnvFunc lookup failed")
	}
}

func TestIntegerLiteralTyping(t *testing.T) {
	// "2" is INT, "2.0" and "2e0" are FLOAT.
	if got := evalStr(t, "2", MapEnv{}); got.Type() != value.IntType {
		t.Errorf("2 has type %v", got.Type())
	}
	if got := evalStr(t, "2.0", MapEnv{}); got.Type() != value.FloatType {
		t.Errorf("2.0 has type %v", got.Type())
	}
	if got := evalStr(t, "2e0", MapEnv{}); got.Type() != value.FloatType {
		t.Errorf("2e0 has type %v", got.Type())
	}
}

func TestLikeCacheConcurrency(t *testing.T) {
	e, err := sqlparse.ParseExpr("'abc' LIKE 'a%'")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				if v, err := Eval(e, MapEnv{}); err != nil || !v.IsTrue() {
					t.Errorf("concurrent LIKE failed: %v %v", v, err)
					break
				}
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestLikeCacheBounded(t *testing.T) {
	for i := 0; i < 4*likeCacheGen; i++ {
		pat := "unique-" + strconv.Itoa(i) + "-%"
		if _, err := likeCache.get(pat); err != nil {
			t.Fatalf("get(%q): %v", pat, err)
		}
	}
	if n := likeCache.size(); n > 2*likeCacheGen {
		t.Errorf("likeCache holds %d patterns, bound is %d", n, 2*likeCacheGen)
	}
	// A hot pattern survives generation rotation by promotion.
	if _, err := likeCache.get("hot-%"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*likeCacheGen; i++ {
		if i%8 == 0 {
			if _, err := likeCache.get("hot-%"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := likeCache.get("churn-" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	likeCache.mu.Lock()
	_, inCur := likeCache.cur["hot-%"]
	_, inPrev := likeCache.prev["hot-%"]
	likeCache.mu.Unlock()
	if !inCur && !inPrev {
		t.Error("hot pattern was evicted despite frequent use")
	}
}

// benchExpr is a representative chain-step predicate: residual type and
// flux cuts plus a LIKE, the shapes §5.3 evaluates per candidate.
const benchExpr = `O.type = 'GALAXY' AND (O.i_flux - T.i_flux) > 2 AND ABS(O.dec) < 30.0 AND name LIKE 'NGC%'`

func benchRow() []value.Value {
	return []value.Value{
		value.String("GALAXY"), value.Float(12.5), value.Float(9),
		value.Float(-12.25), value.String("NGC 1275"), value.Int(7), value.Int(-3),
	}
}

// BenchmarkInterpretedExpr is the historical per-candidate path: AST walk
// with Env lookups (environment pre-built; the real sites also paid a
// fresh MapEnv per tuple on top of this).
func BenchmarkInterpretedExpr(b *testing.B) {
	e, err := sqlparse.ParseExpr(benchExpr)
	if err != nil {
		b.Fatal(err)
	}
	env := envFromLayout(stdLayout, benchRow())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := EvalBool(e, env)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
