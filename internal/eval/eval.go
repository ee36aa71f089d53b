// Package eval evaluates parsed SQL expressions (internal/sqlparse) over an
// environment that resolves column references to values. It is shared by
// the storage engine (row predicates, projections) and the cross-match
// chain executor (cross-archive predicates over partial tuples).
//
// Two engines share one semantics:
//
//   - Eval interprets the AST per row through Env lookups. It is the
//     reference implementation and the slowest path.
//   - CompileTyped resolves column references to batch slots against a
//     Layout at plan time, checks function names and arities, folds
//     constant subtrees, and returns a TypedProgram evaluated over typed
//     column vectors (Vector: native []int64 / []float64 / []string / []bool
//     payloads with a null mask, vector.go) with a selection vector, in
//     batches of BatchSize rows (default 1024). Kernels dispatch per batch
//     on operand kinds and loop over raw slices; boxed fallbacks cover
//     mixed-kind columns and the long tail. All hot scan sites — storage
//     scans (zero-copy column views of the table backends, zone-map
//     pruned), chain-step local/cross predicates (typed candidate
//     gathers), portal projection, the pull baseline — run this engine.
//     typed.go holds the batch execution model and the exact
//     error-semantics contract (errRow: evaluation stops at the first
//     selected row whose row-at-a-time evaluation would error).
//
// The interpreter is not dead code: it is the oracle. It folds constant
// subtrees for the typed compiler and defines the value of every row and
// the first erroring row the typed engine must reproduce. Every scalar
// function dispatches to the same kernels from both engines, and the
// differential tests plus the FuzzBatchDifferential (batches, first
// erroring row) and FuzzCompileDifferential (each row alone) fuzz targets
// enforce value- and error-agreement row by row.
//
// AnalyzePrune (prune.go) is the plan-time companion of the typed scan:
// it extracts the WHERE conjuncts whose per-block min/max statistics can
// prove scan blocks dead, with the exactness conditions documented there.
package eval

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"

	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// Env resolves column references during evaluation.
type Env interface {
	// Lookup returns the value of table.column. table may be empty for
	// unqualified references in single-table contexts.
	Lookup(table, column string) (value.Value, error)
}

// EnvFunc adapts a function to the Env interface.
type EnvFunc func(table, column string) (value.Value, error)

// Lookup implements Env.
func (f EnvFunc) Lookup(table, column string) (value.Value, error) { return f(table, column) }

// MapEnv is an Env backed by a map from "table.column" (or "column" for
// unqualified names) to values.
type MapEnv map[string]value.Value

// Lookup implements Env.
func (m MapEnv) Lookup(table, column string) (value.Value, error) {
	key := column
	if table != "" {
		key = table + "." + column
	}
	if v, ok := m[key]; ok {
		return v, nil
	}
	// Fall back to the bare column for single-table contexts.
	if table != "" {
		if v, ok := m[column]; ok {
			return v, nil
		}
	}
	return value.Null, fmt.Errorf("eval: unknown column %q", key)
}

// Eval evaluates the expression in the environment. Errors indicate type
// mismatches or unknown columns/functions; SQL NULL is a value, not an
// error.
func Eval(e sqlparse.Expr, env Env) (value.Value, error) {
	switch n := e.(type) {
	case *sqlparse.NumberLit:
		// Integral literals become INTs so that int columns compare and
		// group naturally; anything with a fraction or exponent is FLOAT.
		if n.Value == math.Trunc(n.Value) && !strings.ContainsAny(n.Text, ".eE") && math.Abs(n.Value) < 1e15 {
			return value.Int(int64(n.Value)), nil
		}
		return value.Float(n.Value), nil

	case *sqlparse.StringLit:
		return value.String(n.Value), nil

	case *sqlparse.BoolLit:
		return value.Bool(n.Value), nil

	case *sqlparse.NullLit:
		return value.Null, nil

	case *sqlparse.ColumnRef:
		return env.Lookup(n.Table, n.Column)

	case *sqlparse.UnaryExpr:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Null, err
		}
		if n.Op == "NOT" {
			return value.Not(x), nil
		}
		return value.Neg(x)

	case *sqlparse.BinaryExpr:
		return evalBinary(n, env)

	case *sqlparse.IsNull:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Null, err
		}
		return value.Bool(x.IsNull() != n.Negated), nil

	case *sqlparse.InList:
		return evalIn(n, env)

	case *sqlparse.Between:
		return evalBetween(n, env)

	case *sqlparse.FuncCall:
		return evalFunc(n, env)

	case *sqlparse.Star:
		return value.Null, fmt.Errorf("eval: * is not valid in an expression")
	}
	return value.Null, fmt.Errorf("eval: unsupported expression %T", e)
}

// EvalBool evaluates a predicate; NULL (SQL UNKNOWN) counts as false, as in
// a WHERE clause.
func EvalBool(e sqlparse.Expr, env Env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	return v.IsTrue(), nil
}

func evalBinary(n *sqlparse.BinaryExpr, env Env) (value.Value, error) {
	// AND short-circuits around errors on the other side only when the
	// decided side already forces the result, matching SQL engines that
	// evaluate lazily.
	switch n.Op {
	case "AND":
		l, err := Eval(n.L, env)
		if err != nil {
			return value.Null, err
		}
		if l.Type() == value.BoolType && !l.AsBool() {
			return value.Bool(false), nil
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return value.Null, err
		}
		return value.And(l, r), nil
	case "OR":
		l, err := Eval(n.L, env)
		if err != nil {
			return value.Null, err
		}
		if l.IsTrue() {
			return value.Bool(true), nil
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return value.Null, err
		}
		return value.Or(l, r), nil
	}

	l, err := Eval(n.L, env)
	if err != nil {
		return value.Null, err
	}
	r, err := Eval(n.R, env)
	if err != nil {
		return value.Null, err
	}
	switch n.Op {
	case "+", "-", "*", "/", "%":
		return value.Arith(n.Op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		cmp, ok, err := value.Compare(l, r)
		if err != nil {
			return value.Null, err
		}
		if !ok {
			return value.Null, nil // NULL comparison → UNKNOWN
		}
		var b bool
		switch n.Op {
		case "=":
			b = cmp == 0
		case "<>":
			b = cmp != 0
		case "<":
			b = cmp < 0
		case "<=":
			b = cmp <= 0
		case ">":
			b = cmp > 0
		case ">=":
			b = cmp >= 0
		}
		return value.Bool(b), nil
	case "LIKE":
		return evalLike(l, r)
	}
	return value.Null, fmt.Errorf("eval: unknown operator %q", n.Op)
}

func evalIn(n *sqlparse.InList, env Env) (value.Value, error) {
	x, err := Eval(n.X, env)
	if err != nil {
		return value.Null, err
	}
	if x.IsNull() {
		return value.Null, nil
	}
	sawNull := false
	for _, item := range n.List {
		v, err := Eval(item, env)
		if err != nil {
			return value.Null, err
		}
		cmp, ok, err := value.Compare(x, v)
		if err != nil {
			return value.Null, err
		}
		if !ok {
			sawNull = true
			continue
		}
		if cmp == 0 {
			return value.Bool(!n.Negated), nil
		}
	}
	if sawNull {
		return value.Null, nil
	}
	return value.Bool(n.Negated), nil
}

func evalBetween(n *sqlparse.Between, env Env) (value.Value, error) {
	x, err := Eval(n.X, env)
	if err != nil {
		return value.Null, err
	}
	lo, err := Eval(n.Lo, env)
	if err != nil {
		return value.Null, err
	}
	hi, err := Eval(n.Hi, env)
	if err != nil {
		return value.Null, err
	}
	cmpLo, okLo, err := value.Compare(x, lo)
	if err != nil {
		return value.Null, err
	}
	cmpHi, okHi, err := value.Compare(x, hi)
	if err != nil {
		return value.Null, err
	}
	if !okLo || !okHi {
		return value.Null, nil
	}
	in := cmpLo >= 0 && cmpHi <= 0
	return value.Bool(in != n.Negated), nil
}

// likePatternCache is a bounded cache of compiled LIKE patterns. Federated
// predicates re-evaluate the same pattern per row, so caching pays; but the
// portal accepts arbitrary query streams, and an unbounded cache keyed by
// pattern text would grow forever under unique patterns. Two generations of
// at most likeCacheGen entries each bound the footprint: when the current
// generation fills up it becomes the previous one, and entries still in use
// are promoted back on their next hit (a miss only ever recompiles, never
// breaks correctness).
type likePatternCache struct {
	mu   sync.RWMutex
	cur  map[string]*regexp.Regexp
	prev map[string]*regexp.Regexp
}

// likeCacheGen is the per-generation capacity (two generations are live at
// once, so at most 2*likeCacheGen patterns are retained).
const likeCacheGen = 256

var likeCache likePatternCache

func (c *likePatternCache) get(pat string) (*regexp.Regexp, error) {
	// The common case — a current-generation hit — takes only the read
	// lock, so parallel chain workers evaluating the same dynamic pattern
	// do not serialize.
	c.mu.RLock()
	rx, hit := c.cur[pat]
	c.mu.RUnlock()
	if hit {
		return rx, nil
	}
	c.mu.Lock()
	if rx, ok := c.cur[pat]; ok {
		c.mu.Unlock()
		return rx, nil
	}
	if rx, ok := c.prev[pat]; ok {
		c.insertLocked(pat, rx)
		c.mu.Unlock()
		return rx, nil
	}
	c.mu.Unlock()
	// Compile outside the lock; a concurrent duplicate compile is harmless.
	rx, err := compileLike(pat)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.insertLocked(pat, rx)
	c.mu.Unlock()
	return rx, nil
}

func (c *likePatternCache) insertLocked(pat string, rx *regexp.Regexp) {
	if c.cur == nil {
		c.cur = make(map[string]*regexp.Regexp, likeCacheGen)
	}
	if len(c.cur) >= likeCacheGen {
		c.prev = c.cur
		c.cur = make(map[string]*regexp.Regexp, likeCacheGen)
	}
	c.cur[pat] = rx
}

// size reports the number of retained patterns (for tests).
func (c *likePatternCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.prev)
}

func evalLike(l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if l.Type() != value.StringType || r.Type() != value.StringType {
		return value.Null, fmt.Errorf("eval: LIKE requires strings, got %v and %v", l.Type(), r.Type())
	}
	rx, err := likeCache.get(r.AsString())
	if err != nil {
		return value.Null, err
	}
	return value.Bool(rx.MatchString(l.AsString())), nil
}

// compileLike translates a SQL LIKE pattern (% and _) into an anchored
// regular expression.
func compileLike(pat string) (*regexp.Regexp, error) {
	var sb strings.Builder
	sb.WriteString("(?s)^")
	for _, r := range pat {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	return regexp.Compile(sb.String())
}

// The scalar function set mirrors what astronomy predicates in the paper's
// examples need, plus common numeric helpers. Semantics live in per-function
// kernels over already-evaluated arguments so that the tree-walking
// interpreter (evalFunc) and the typed compiler (compileFunc) dispatch to
// the exact same code and cannot drift.

// kernel1 and kernel2 are unary and binary scalar function kernels.
type kernel1 func(a value.Value) (value.Value, error)
type kernel2 func(a, b value.Value) (value.Value, error)

// oneNumKernel wraps a float function with NULL propagation and the numeric
// type check, naming the function in errors.
func oneNumKernel(name string, f func(float64) float64) kernel1 {
	return func(a value.Value) (value.Value, error) {
		if a.IsNull() {
			return value.Null, nil
		}
		x, ok := a.AsFloat()
		if !ok {
			return value.Null, fmt.Errorf("eval: %s expects a number, got %v", name, a.Type())
		}
		return value.Float(f(x)), nil
	}
}

// oneStrKernel wraps a string function with NULL propagation. Like the
// historical evaluator it does not type-check: non-string values read as
// the empty string.
func oneStrKernel(f func(string) value.Value) kernel1 {
	return func(a value.Value) (value.Value, error) {
		if a.IsNull() {
			return value.Null, nil
		}
		return f(a.AsString()), nil
	}
}

func absKernel(a value.Value) (value.Value, error) {
	if a.IsNull() {
		return value.Null, nil
	}
	if a.Type() == value.IntType {
		i := a.AsInt()
		if i == math.MinInt64 {
			// -math.MinInt64 overflows back to itself; the magnitude is
			// only representable as a float.
			return value.Float(-float64(math.MinInt64)), nil
		}
		if i < 0 {
			i = -i
		}
		return value.Int(i), nil
	}
	return oneNumKernel("ABS", math.Abs)(a)
}

func powerKernel(a, b value.Value) (value.Value, error) {
	if a.IsNull() || b.IsNull() {
		return value.Null, nil
	}
	x, okX := a.AsFloat()
	y, okY := b.AsFloat()
	if !okX || !okY {
		return value.Null, fmt.Errorf("eval: POWER expects numbers")
	}
	return value.Float(math.Pow(x, y)), nil
}

// scalar1 and scalar2 map upper-cased function names to their kernels.
var scalar1 = map[string]kernel1{
	"ABS":     absKernel,
	"SQRT":    oneNumKernel("SQRT", math.Sqrt),
	"FLOOR":   oneNumKernel("FLOOR", math.Floor),
	"CEIL":    oneNumKernel("CEIL", math.Ceil),
	"CEILING": oneNumKernel("CEILING", math.Ceil),
	"LOG":     oneNumKernel("LOG", math.Log),
	"LOG10":   oneNumKernel("LOG10", math.Log10),
	"EXP":     oneNumKernel("EXP", math.Exp),
	"SIN":     oneNumKernel("SIN", math.Sin),
	"COS":     oneNumKernel("COS", math.Cos),
	"RADIANS": oneNumKernel("RADIANS", func(x float64) float64 { return x * math.Pi / 180 }),
	"DEGREES": oneNumKernel("DEGREES", func(x float64) float64 { return x * 180 / math.Pi }),
	"UPPER":   oneStrKernel(func(s string) value.Value { return value.String(strings.ToUpper(s)) }),
	"LOWER":   oneStrKernel(func(s string) value.Value { return value.String(strings.ToLower(s)) }),
	"LEN":     oneStrKernel(func(s string) value.Value { return value.Int(int64(len(s))) }),
	"LENGTH":  oneStrKernel(func(s string) value.Value { return value.Int(int64(len(s))) }),
}

var scalar2 = map[string]kernel2{
	"POWER": powerKernel,
	"POW":   powerKernel,
}

func arityErr(name string, want, got int) error {
	return fmt.Errorf("eval: %s expects %d argument(s), got %d", name, want, got)
}

// FuncResultType infers a scalar function's static result type for
// projection schema inference. It lives beside the kernel tables above so
// that adding a function and typing its result happen in one place: a
// string-producing kernel whose type is left to the FLOAT default makes
// the wire codec reject its cells. argType types an argument expression
// (COALESCE is as typed as its first argument); numeric and unknown
// functions default to FLOAT.
func FuncResultType(n *sqlparse.FuncCall, argType func(sqlparse.Expr) value.Type) value.Type {
	switch strings.ToUpper(n.Name) {
	case "UPPER", "LOWER":
		return value.StringType
	case "LEN", "LENGTH":
		return value.IntType
	case "COALESCE":
		if len(n.Args) > 0 {
			return argType(n.Args[0])
		}
	}
	return value.FloatType
}

// evalFunc dispatches scalar functions in the interpreter: arguments are
// evaluated first (matching historical behavior, so an erroring argument
// wins over an arity error), then handed to the shared kernels.
func evalFunc(n *sqlparse.FuncCall, env Env) (value.Value, error) {
	name := strings.ToUpper(n.Name)
	args := make([]value.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := Eval(a, env)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	if f, ok := scalar1[name]; ok {
		if len(args) != 1 {
			return value.Null, arityErr(name, 1, len(args))
		}
		return f(args[0])
	}
	if f, ok := scalar2[name]; ok {
		if len(args) != 2 {
			return value.Null, arityErr(name, 2, len(args))
		}
		return f(args[0], args[1])
	}
	if name == "COALESCE" {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	}
	return value.Null, fmt.Errorf("eval: unknown function %q", n.Name)
}

// CompareForSort orders two values for ORDER BY: NULLs sort first, then
// value comparison; incomparable types are an error.
func CompareForSort(a, b value.Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	}
	cmp, ok, err := value.Compare(a, b)
	if err != nil {
		return 0, fmt.Errorf("eval: ORDER BY: %w", err)
	}
	if !ok {
		return 0, nil
	}
	return cmp, nil
}

// SortRows stable-sorts rows by the given sort keys (keys[i] are the
// evaluated ORDER BY values of rows[i]) honoring each item's direction.
// The sorted rows are returned; keys and rows are not modified.
func SortRows(rows [][]value.Value, keys [][]value.Value, items []sqlparse.OrderItem) ([][]value.Value, error) {
	if len(rows) != len(keys) {
		return nil, fmt.Errorf("eval: SortRows: %d rows but %d key rows", len(rows), len(keys))
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		if sortErr != nil {
			return false
		}
		ka, kb := keys[idx[a]], keys[idx[b]]
		for k := range items {
			cmp, err := CompareForSort(ka[k], kb[k])
			if err != nil {
				sortErr = err
				return false
			}
			if cmp == 0 {
				continue
			}
			if items[k].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := make([][]value.Value, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out, nil
}
