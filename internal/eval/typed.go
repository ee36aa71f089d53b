package eval

// This file is the production engine of the expression stack and the home
// of its batch execution model. Eval (eval.go) interprets the AST row by
// row; CompileTyped resolves every column reference to an integer slot
// against a Layout once, at plan time, and compiles the expression into a
// program evaluated over typed column vectors (vector.go) — []int64 /
// []float64 / []string / []bool payloads with a null mask, or a boxed
// []value.Value fallback for columns whose cells mix types. Scan sites
// gather candidate rows into fixed-size batches (BatchSize, default 1024),
// run the WHERE program once per batch, and only then materialize the
// surviving rows, so the per-row cost collapses to tight slice loops
// instead of an interpreter dispatch per expression node per row.
//
// The execution model:
//
//   - A TBatch holds up to its capacity in rows, column-major. Callers fill
//     only the columns in TypedProgram.Refs() and SetLen to the row count.
//   - A selection vector is a strictly increasing []int of batch positions.
//     Filter reduces it to the rows where the predicate is TRUE. AND/OR
//     spines are flattened into n-ary nodes that carry one truth-state
//     accumulator and a shrinking "live" selection: each conjunct is
//     evaluated only at the rows still undecided after the previous ones —
//     exactly the rows the interpreter's short-circuit would have reached
//     it on — and decided rows are never rewritten. IN lists evaluate each
//     item the same way, only at rows no earlier item has decided.
//   - Kernels dispatch per *batch* on the operand vectors' kinds, so the
//     per-row loops run over raw native slices: comparisons inline the
//     int64/float64/string/bool paths (mirroring value.Compare bug-for-bug,
//     including the float widening of int64 operands and NaN-compares-
//     equal), arithmetic inlines the int64 and float64 paths of value.Arith
//     (wraparound integer + - * %, always-float division, identical
//     division-by-zero errors), AND/OR fold member truth states with exact
//     Kleene semantics over arbitrary operand kinds, BETWEEN and IN reuse
//     the comparison kernels, and constant-pattern LIKE runs its matcher
//     straight over the string payload. Anything else — a boxed operand
//     column, a mixed-kind pair, scalar functions outside the float fast
//     path — falls back per element to the very kernels the interpreter
//     uses, so the typed engine cannot drift from it on the long tail.
//
// Error timing. The interpreter is the reference semantics, with one
// deliberate divergence: a predicate that can never evaluate (unknown
// column, unknown function, wrong arity) fails at CompileTyped time —
// before a scan or chain step starts — where the interpreter would fail
// on the first row it touches. Constant subtrees fold once, through the
// interpreter; one whose evaluation errors (e.g. 1/0) keeps failing at
// evaluation time, on the first selected row, so that data-dependent
// behavior, such as a scan over zero matching rows, is unchanged.
//
// Per row, evaluation errors mirror the interpreter: evaluation stops at
// the first selected row whose row-at-a-time evaluation would error, and
// that row index is reported alongside the error (errRow). Rows before
// errRow are fully evaluated, which lets scan sites with TOP decide whether
// the row-at-a-time scan would have stopped before ever reaching the
// failing row (and suppress the error exactly when it would have). When
// several rows of a batch would error on different subexpressions, the
// reported error is the one from the lowest row, like the sequential scan;
// pipelines of several programs (local predicate, then cross predicates)
// may surface a different member's error than an interleaved row loop
// would, but never differ on error presence. The differential tests in
// typed_test.go and the FuzzBatchDifferential and FuzzCompileDifferential
// targets hold the typed engine to the interpreter on values and on
// errRow.
//
// Programs are immutable after CompileTyped and safe for concurrent use.
// Per-evaluation scratch lives in a TypedEval (never share one between
// goroutines); its vectors, selection buffers and state masks come from
// the slab pools in vector.go and return there on Release.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// Layout resolves column references to slots of the batch a program is
// evaluated over. Implementations decide qualifier semantics (alias
// matching, bare-name fallback) and own the error messages for unknown
// references.
type Layout interface {
	// Slot returns the row index holding table.column (table may be
	// empty), or an error if the reference does not resolve.
	Slot(table, column string) (int, error)
}

// LayoutFunc adapts a function to the Layout interface.
type LayoutFunc func(table, column string) (int, error)

// Slot implements Layout.
func (f LayoutFunc) Slot(table, column string) (int, error) { return f(table, column) }

// MapLayout is a Layout backed by a map from "table.column" (or "column"
// for unqualified names) to slots, with MapEnv's resolution semantics: a
// qualified reference falls back to the bare column name.
type MapLayout map[string]int

// Slot implements Layout.
func (m MapLayout) Slot(table, column string) (int, error) {
	key := column
	if table != "" {
		key = table + "." + column
	}
	if s, ok := m[key]; ok {
		return s, nil
	}
	if table != "" {
		if s, ok := m[column]; ok {
			return s, nil
		}
	}
	return 0, fmt.Errorf("eval: unknown column %q", key)
}

// DefaultBatchSize is the number of rows scan sites gather per batch when
// nothing overrides it. 1024 keeps a batch's working set (a handful of
// value columns) inside the cache while amortizing per-batch overhead to
// noise.
const DefaultBatchSize = 1024

// batchSize is the process-wide batch size knob; see BatchSize.
var batchSize atomic.Int64

func init() { batchSize.Store(DefaultBatchSize) }

// BatchSize returns the row count scan sites use per evaluation batch.
func BatchSize() int { return int(batchSize.Load()) }

// SetBatchSize overrides the scan batch size (values < 1 select the
// default). It exists for tests — the golden query corpus runs the full
// portal at batch sizes {1, 3, 1024} to shake out batch-boundary bugs —
// and for tuning experiments. Concurrent queries read it atomically, but
// changing it mid-query only affects batches created afterwards.
func SetBatchSize(n int) {
	if n < 1 {
		n = DefaultBatchSize
	}
	batchSize.Store(int64(n))
}

// UnionRefs merges slot lists (typically several programs' Refs) into one
// sorted, duplicate-free list — the gather list for callers that fill one
// batch for a pipeline of programs.
func UnionRefs(lists ...[]int) []int {
	seen := map[int]bool{}
	var out []int
	for _, refs := range lists {
		for _, s := range refs {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Ints(out)
	return out
}

// selBefore truncates an ascending selection to the rows before errRow
// (errRow < 0 means no error: the whole selection is live).
func selBefore(sel []int, errRow int) []int {
	if errRow < 0 {
		return sel
	}
	i := sort.SearchInts(sel, errRow)
	return sel[:i]
}

// constVal is the folded outcome of a row-independent subtree: a value, or
// an error that must keep surfacing at evaluation time (first selected
// row), never at compile time.
type constVal struct {
	v   value.Value
	err error
}

// constFill records a constant vector to pre-fill when a TypedEval is
// created, so constant subtrees cost nothing per batch.
type constFill struct {
	vec int
	v   value.Value
}

// cmpOpKind maps a comparison operator to a loop-invariant discriminator,
// so the batch loop branches on an integer the predictor locks onto
// instead of calling a predicate closure per row.
func cmpOpKind(op string) uint8 {
	switch op {
	case "=":
		return 0
	case "<>":
		return 1
	case "<":
		return 2
	case "<=":
		return 3
	case ">":
		return 4
	default: // ">="
		return 5
	}
}

func cmpKindHolds(kind uint8, c int) bool {
	switch kind {
	case 0:
		return c == 0
	case 1:
		return c != 0
	case 2:
		return c < 0
	case 3:
		return c <= 0
	case 4:
		return c > 0
	default:
		return c >= 0
	}
}

// tnodeFunc is a typed batch node body: it evaluates the subexpression at
// the selected rows, returning a vector valid at every selected row below
// errRow (-1 when err is nil).
type tnodeFunc func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error)

// texpr is one compiled typed node: a generic body, or a flattened n-ary
// conjunction/disjunction evaluated over a shrinking live selection.
type texpr struct {
	fn    tnodeFunc
	and   []texpr
	or    []texpr
	vec   int // output vector id for n-ary nodes
	state int // truth-state buffer id for n-ary nodes
	live  int // live-selection buffer id for n-ary nodes
}

// Truth states the n-ary AND/OR fold tracks per row. sOther is a non-bool,
// non-NULL accumulator value (only possible after the first member; it
// folds exactly like value.And/value.Or treat such operands).
const (
	sFalse uint8 = iota
	sTrue
	sNull
	sOther
)

// stateAt classifies one row of a member's result vector.
func stateAt(v *Vector, r int) uint8 {
	switch v.Kind {
	case VecBool:
		if v.Nulls != nil && v.Nulls[r] {
			return sNull
		}
		if v.Bools[r] {
			return sTrue
		}
		return sFalse
	case VecBoxed:
		val := v.Boxed[r]
		if val.Type() == value.BoolType {
			if val.AsBool() {
				return sTrue
			}
			return sFalse
		}
		if val.IsNull() {
			return sNull
		}
		return sOther
	default:
		if v.Nulls != nil && v.Nulls[r] {
			return sNull
		}
		return sOther
	}
}

// andFold is value.And over truth states: FALSE dominates, then NULL, and
// any non-bool operand surviving to the fold acts as FALSE (And(5, TRUE)
// is FALSE, And(5, NULL) is NULL — see value.And).
func andFold(a, m uint8) uint8 {
	switch {
	case a == sFalse || m == sFalse:
		return sFalse
	case a == sNull || m == sNull:
		return sNull
	case a == sTrue && m == sTrue:
		return sTrue
	default:
		return sFalse
	}
}

// orFold is value.Or over truth states: TRUE dominates, then NULL.
func orFold(a, m uint8) uint8 {
	switch {
	case a == sTrue || m == sTrue:
		return sTrue
	case a == sNull || m == sNull:
		return sNull
	default:
		return sFalse
	}
}

func (n *texpr) eval(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
	switch {
	case n.and != nil:
		return n.evalNary(ev, b, sel, n.and, true)
	case n.or != nil:
		return n.evalNary(ev, b, sel, n.or, false)
	default:
		return n.fn(ev, b, sel)
	}
}

// evalNary evaluates a flattened AND (isAnd) or OR spine with the
// interpreter's short-circuit: the accumulator starts as the first member's
// truth state, later members run only at still-undecided rows —
// AND: not strictly FALSE; OR: not TRUE — and a member's failure truncates
// the live set to the rows before it while evaluation continues, so the
// reported error is the lowest row's, as the sequential scan surfaces it.
func (n *texpr) evalNary(ev *TypedEval, b *TBatch, sel []int, members []texpr, isAnd bool) (*Vector, int, error) {
	st := ev.states[n.state]
	live := ev.sels[n.live][:0]
	m0, errRow, err := members[0].eval(ev, b, sel)
	for _, r := range selBefore(sel, errRow) {
		s := stateAt(m0, r)
		st[r] = s
		if isAnd && s == sFalse || !isAnd && s == sTrue {
			continue
		}
		live = append(live, r)
	}
	for i := 1; i < len(members); i++ {
		if len(live) == 0 {
			break
		}
		mo, cer, cerr := members[i].eval(ev, b, live)
		if cerr != nil {
			// cer is a live row, so strictly below any previous bound.
			errRow, err = cer, cerr
			live = selBefore(live, cer)
		}
		w := 0
		for _, r := range live {
			var s uint8
			if isAnd {
				s = andFold(st[r], stateAt(mo, r))
			} else {
				s = orFold(st[r], stateAt(mo, r))
			}
			st[r] = s
			if isAnd && s == sFalse || !isAnd && s == sTrue {
				continue
			}
			live[w] = r
			w++
		}
		live = live[:w]
	}
	// Every row below errRow is decided {FALSE, TRUE, NULL}: a spine has at
	// least two members, and a row can only leave the live set decided (or
	// at/after the error bound, where the output is never read).
	out := &ev.vecs[n.vec]
	ob, on := out.BoolBuf(ev.cap)
	for _, r := range selBefore(sel, errRow) {
		switch st[r] {
		case sTrue:
			ob[r], on[r] = true, false
		case sNull:
			on[r] = true
		default:
			ob[r], on[r] = false, false
		}
	}
	return out, errRow, err
}

// TypedProgram is a compiled typed batch expression. It is immutable and
// safe for concurrent use; all mutable evaluation state lives in a
// TypedEval.
type TypedProgram struct {
	root   texpr
	refs   []int
	width  int
	nVec   int
	nSel   int
	nState int
	consts []constFill
}

// TypedEval is the per-goroutine scratch for one TypedProgram: result
// vectors (one per node) and the truth-state and live-selection buffers of
// the AND/OR spines and IN lists. All of it comes from the slab pools;
// Release returns it.
type TypedEval struct {
	vecs    []Vector
	states  [][]uint8
	sels    [][]int
	seq     []int
	out     []int
	noNulls []bool
	cap     int
}

// NewEval allocates (pool-backed) evaluation scratch for batches of up to
// capacity rows. It is valid on a nil program (the scratch still provides
// Seq for callers that batch without a predicate).
func (p *TypedProgram) NewEval(capacity int) *TypedEval {
	if capacity < 1 {
		capacity = 1
	}
	ev := &TypedEval{
		cap: capacity,
		seq: getSel(capacity),
		out: getSel(capacity)[:0],
	}
	for i := range ev.seq {
		ev.seq[i] = i
	}
	if p == nil {
		return ev
	}
	ev.noNulls = getBools(capacity)
	for i := range ev.noNulls {
		ev.noNulls[i] = false
	}
	ev.vecs = make([]Vector, p.nVec)
	ev.states = make([][]uint8, p.nState)
	for i := range ev.states {
		ev.states[i] = getStates(capacity)
	}
	ev.sels = make([][]int, p.nSel)
	for i := range ev.sels {
		ev.sels[i] = getSel(capacity)[:0]
	}
	for _, c := range p.consts {
		ev.vecs[c.vec].Broadcast(c.v, capacity)
	}
	return ev
}

// Seq returns the identity selection [0, n): every row of a batch active.
func (ev *TypedEval) Seq(n int) []int { return ev.seq[:n] }

// Release returns all scratch to the slab pools. The TypedEval (and any
// vector an evaluation returned) must not be used afterwards.
func (ev *TypedEval) Release() {
	for i := range ev.vecs {
		ev.vecs[i].Release()
	}
	for _, s := range ev.states {
		putStates(s)
	}
	for _, s := range ev.sels {
		putSel(s)
	}
	if ev.seq != nil {
		putSel(ev.seq)
	}
	if ev.out != nil {
		putSel(ev.out)
	}
	if ev.noNulls != nil {
		putBools(ev.noNulls)
	}
	*ev = TypedEval{}
}

// nullsOf returns a null mask to index for a typed vector (a shared
// all-false mask when the vector has none).
func (ev *TypedEval) nullsOf(v *Vector) []bool {
	if v.Nulls != nil {
		return v.Nulls
	}
	return ev.noNulls
}

// CompileTyped compiles the expression into a typed batch program against
// the layout. A nil expression compiles to a nil program, whose Filter
// passes every row (the semantics of an absent WHERE clause). Binding
// errors (unknown columns, functions, arities) surface here, before any
// row is evaluated.
func CompileTyped(e sqlparse.Expr, layout Layout) (*TypedProgram, error) {
	if e == nil {
		return nil, nil
	}
	c := &typedCompiler{layout: layout, refs: map[int]bool{}}
	root, _, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	p := &TypedProgram{root: *root, nVec: c.nVec, nSel: c.nSel, nState: c.nState, consts: c.consts}
	for s := range c.refs {
		p.refs = append(p.refs, s)
		if s+1 > p.width {
			p.width = s + 1
		}
	}
	sort.Ints(p.refs)
	return p, nil
}

// Refs returns the sorted batch slots the program reads (nil-safe).
func (p *TypedProgram) Refs() []int {
	if p == nil {
		return nil
	}
	return p.refs
}

// checkBatch validates slot coverage and that every referenced column was
// filled, once per batch.
func (p *TypedProgram) checkBatch(b *TBatch) error {
	if b.Width() < p.width {
		return fmt.Errorf("eval: typed batch has %d slots, program reads slot %d", b.Width(), p.width-1)
	}
	for _, s := range p.refs {
		if !b.filled[s] {
			return fmt.Errorf("eval: typed batch slot %d referenced by program but never filled", s)
		}
	}
	return nil
}

// truthAt reports whether a result vector row is boolean TRUE.
func truthAt(v *Vector, r int) bool {
	switch v.Kind {
	case VecBool:
		return (v.Nulls == nil || !v.Nulls[r]) && v.Bools[r]
	case VecBoxed:
		return v.Boxed[r].IsTrue()
	default:
		return false
	}
}

// Filter evaluates the program as a predicate over the selected rows and
// returns the rows where it is TRUE (NULL counts as false, as in a WHERE
// clause). The returned selection is owned by ev and valid until its next
// use. A nil program passes the selection through unchanged.
//
// On error, errRow is the first selected row whose evaluation failed and
// the returned selection holds the passing rows before it — enough for
// TOP-style callers to decide whether a row-at-a-time scan would have
// stopped before the failure. errRow is -1 when err is nil, or when the
// batch itself was malformed (an unfilled referenced column), which is
// never suppressible.
func (p *TypedProgram) Filter(ev *TypedEval, b *TBatch, sel []int) (passed []int, errRow int, err error) {
	if p == nil {
		return sel, -1, nil
	}
	if err := p.checkBatch(b); err != nil {
		return nil, -1, err
	}
	out, errRow, err := p.root.eval(ev, b, sel)
	passed = ev.out[:0]
	rows := selBefore(sel, errRow)
	// A dense selection (the identity prefix every base-table scan feeds
	// in) over a boolean vector compacts word-at-a-time; selections are
	// strictly increasing, so first==0 and last==len-1 imply identity.
	if out != nil && out.Kind == VecBool && len(rows) > 0 &&
		rows[0] == 0 && rows[len(rows)-1] == len(rows)-1 {
		passed = CompactTrue(passed, out.Bools, out.Nulls, len(rows))
	} else {
		for _, r := range rows {
			if truthAt(out, r) {
				passed = append(passed, r)
			}
		}
	}
	return passed, errRow, err
}

// EvalVec evaluates a value-producing program (projections, sort keys)
// over the selected rows. The vector is owned by ev (or aliases a batch
// column) and valid until the next evaluation.
func (p *TypedProgram) EvalVec(ev *TypedEval, b *TBatch, sel []int) (out *Vector, errRow int, err error) {
	if p == nil {
		return nil, -1, fmt.Errorf("eval: nil typed program")
	}
	if err := p.checkBatch(b); err != nil {
		return nil, -1, err
	}
	return p.root.eval(ev, b, sel)
}

// typedCompiler builds the node tree, handing out vector, selection and
// state ids that NewEval sizes the scratch from.
type typedCompiler struct {
	layout Layout
	refs   map[int]bool
	nVec   int
	nSel   int
	nState int
	consts []constFill
}

func (c *typedCompiler) newVec() int   { id := c.nVec; c.nVec++; return id }
func (c *typedCompiler) newSel() int   { id := c.nSel; c.nSel++; return id }
func (c *typedCompiler) newState() int { id := c.nState; c.nState++; return id }

// constNode materializes a folded constant: a broadcast vector, or an
// error surfacing at the first selected row (never at compile time).
func (c *typedCompiler) constNode(cv constVal) (*texpr, *constVal, error) {
	if cv.err != nil {
		err := cv.err
		return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
			if len(sel) == 0 {
				return nil, -1, nil
			}
			return nil, sel[0], err
		}}, &cv, nil
	}
	id := c.newVec()
	c.consts = append(c.consts, constFill{vec: id, v: cv.v})
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		return &ev.vecs[id], -1, nil
	}}, &cv, nil
}

// foldConst evaluates a row-independent subtree once through the
// interpreter (the reference semantics) and freezes the outcome. Callers
// fold only subtrees whose children compiled to constants, so the
// interpreter never reaches a column reference here.
func (c *typedCompiler) foldConst(e sqlparse.Expr) (*texpr, *constVal, error) {
	v, err := Eval(e, MapEnv{})
	return c.constNode(constVal{v: v, err: err})
}

// compileArgs compiles a node's operands in order, reporting whether every
// one of them is a folded constant.
func (c *typedCompiler) compileArgs(es []sqlparse.Expr) ([]*texpr, bool, error) {
	args := make([]*texpr, len(es))
	allConst := true
	for i, e := range es {
		a, ac, err := c.compile(e)
		if err != nil {
			return nil, false, err
		}
		args[i] = a
		allConst = allConst && ac != nil
	}
	return args, allConst, nil
}

// compile returns the typed node for e and, when the subtree is
// row-independent, its folded constant.
func (c *typedCompiler) compile(e sqlparse.Expr) (*texpr, *constVal, error) {
	switch n := e.(type) {
	case *sqlparse.NumberLit, *sqlparse.StringLit, *sqlparse.BoolLit, *sqlparse.NullLit:
		return c.foldConst(e)

	case *sqlparse.ColumnRef:
		slot, err := c.layout.Slot(n.Table, n.Column)
		if err != nil {
			return nil, nil, err
		}
		c.refs[slot] = true
		return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
			return &b.cols[slot], -1, nil
		}}, nil, nil

	case *sqlparse.UnaryExpr:
		x, xc, err := c.compile(n.X)
		if err != nil {
			return nil, nil, err
		}
		if xc != nil {
			return c.foldConst(e)
		}
		if n.Op == "NOT" {
			return c.notNode(x), nil, nil
		}
		return c.negNode(x), nil, nil

	case *sqlparse.IsNull:
		x, xc, err := c.compile(n.X)
		if err != nil {
			return nil, nil, err
		}
		if xc != nil {
			return c.foldConst(e)
		}
		id := c.newVec()
		negated := n.Negated
		return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
			xo, er, xerr := x.eval(ev, b, sel)
			out := &ev.vecs[id]
			ob, on := out.BoolBuf(ev.cap)
			for _, r := range selBefore(sel, er) {
				ob[r], on[r] = xo.NullAt(r) != negated, false
			}
			return out, er, xerr
		}}, nil, nil

	case *sqlparse.BinaryExpr:
		return c.compileBinary(n)

	case *sqlparse.FuncCall:
		return c.compileFunc(n)

	case *sqlparse.InList:
		args, allConst, err := c.compileArgs(append([]sqlparse.Expr{n.X}, n.List...))
		if err != nil {
			return nil, nil, err
		}
		if allConst {
			return c.foldConst(e)
		}
		return c.inNode(args[0], args[1:], n.Negated), nil, nil

	case *sqlparse.Between:
		args, allConst, err := c.compileArgs([]sqlparse.Expr{n.X, n.Lo, n.Hi})
		if err != nil {
			return nil, nil, err
		}
		if allConst {
			return c.foldConst(e)
		}
		return c.betweenNode(args[0], args[1], args[2], n.Negated), nil, nil

	case *sqlparse.Star:
		return nil, nil, fmt.Errorf("eval: * is not valid in an expression")
	}
	return nil, nil, fmt.Errorf("eval: unsupported expression %T", e)
}

func (c *typedCompiler) notNode(x *texpr) *texpr {
	id := c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		xo, er, xerr := x.eval(ev, b, sel)
		out := &ev.vecs[id]
		rows := selBefore(sel, er)
		if len(rows) == 0 {
			// An operand that failed on the first selected row returns no
			// vector; with no rows to fill there is nothing to dispatch on.
			return out, er, xerr
		}
		ob, on := out.BoolBuf(ev.cap)
		switch xo.Kind {
		case VecBool:
			xn := ev.nullsOf(xo)
			for _, r := range rows {
				ob[r], on[r] = !xo.Bools[r], xn[r]
			}
		case VecBoxed:
			for _, r := range rows {
				v := value.Not(xo.Boxed[r])
				ob[r], on[r] = v.IsTrue(), v.IsNull()
			}
		default:
			// value.Not of a non-bool, non-NULL value is TRUE (!IsTrue).
			xn := ev.nullsOf(xo)
			for _, r := range rows {
				ob[r], on[r] = !xn[r], xn[r]
			}
		}
		return out, er, xerr
	}}
}

func (c *typedCompiler) negNode(x *texpr) *texpr {
	id := c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		xo, er, xerr := x.eval(ev, b, sel)
		out := &ev.vecs[id]
		rows := selBefore(sel, er)
		if len(rows) == 0 {
			return out, er, xerr
		}
		switch xo.Kind {
		case VecInt:
			vals, nulls := out.IntBuf(ev.cap)
			xn := ev.nullsOf(xo)
			for _, r := range rows {
				vals[r], nulls[r] = -xo.Ints[r], xn[r]
			}
		case VecFloat:
			vals, nulls := out.FloatBuf(ev.cap)
			xn := ev.nullsOf(xo)
			for _, r := range rows {
				vals[r], nulls[r] = -xo.Floats[r], xn[r]
			}
		default:
			cells := out.BoxedBuf(ev.cap)
			for _, r := range rows {
				v, verr := value.Neg(xo.ValueAt(r))
				if verr != nil {
					return out, r, verr
				}
				cells[r] = v
			}
		}
		return out, er, xerr
	}}
}

func (c *typedCompiler) compileBinary(n *sqlparse.BinaryExpr) (*texpr, *constVal, error) {
	l, lc, err := c.compile(n.L)
	if err != nil {
		return nil, nil, err
	}

	// A constant AND/OR left side can decide the whole expression before
	// the right side is ever evaluated (the interpreter short-circuits the
	// same way, so the fold is exact even if the right side would error).
	// The dead side is still compiled — binding errors there must not hide
	// behind a constant guard — but into a scratch compiler, so the program
	// neither reports (nor needs filled) slots it never reads.
	if lc != nil && (n.Op == "AND" || n.Op == "OR") {
		var decided *constVal
		switch {
		case lc.err != nil:
			decided = &constVal{err: lc.err}
		case n.Op == "AND" && lc.v.Type() == value.BoolType && !lc.v.AsBool():
			decided = &constVal{v: value.Bool(false)}
		case n.Op == "OR" && lc.v.IsTrue():
			decided = &constVal{v: value.Bool(true)}
		}
		if decided != nil {
			sub := &typedCompiler{layout: c.layout, refs: map[int]bool{}}
			if _, _, err := sub.compile(n.R); err != nil {
				return nil, nil, err
			}
			return c.constNode(*decided)
		}
	}

	r, rc, err := c.compile(n.R)
	if err != nil {
		return nil, nil, err
	}
	if lc != nil && rc != nil {
		return c.foldConst(n)
	}

	switch n.Op {
	case "AND":
		// Flatten only the left spine: evalNary's left fold then reproduces
		// the interpreter's nesting exactly. The right side must stay a
		// single member even when it is itself an AND — value.And is not
		// associative once non-bool operands mix with NULL (And(5, TRUE) is
		// FALSE but And(5, NULL) is NULL), so splicing a right-nested AND
		// would re-associate and diverge from the interpreter on both
		// values and error presence.
		members := append(tflattenAnd(l), *r)
		return &texpr{and: members, vec: c.newVec(), state: c.newState(), live: c.newSel()}, nil, nil
	case "OR":
		// OR may flatten both sides: value.Or treats every non-TRUE,
		// non-NULL operand uniformly as FALSE, so it is associative over
		// the full value domain, and the flattened evaluation set (rows
		// whose accumulator is not yet TRUE) is identical to the nested
		// short-circuit's.
		members := append(tflattenOr(l), tflattenOr(r)...)
		return &texpr{or: members, vec: c.newVec(), state: c.newState(), live: c.newSel()}, nil, nil
	case "+", "-", "*", "/", "%":
		return c.arithNode(l, r, n.Op), nil, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return c.cmpNode(l, r, n.Op), nil, nil
	case "LIKE":
		return c.likeNode(l, r, rc), nil, nil
	}
	return nil, nil, fmt.Errorf("eval: unknown operator %q", n.Op)
}

func tflattenAnd(n *texpr) []texpr {
	if n.and != nil {
		return n.and
	}
	return []texpr{*n}
}

func tflattenOr(n *texpr) []texpr {
	if n.or != nil {
		return n.or
	}
	return []texpr{*n}
}

// tbinOperands evaluates a binary node's operands with the interpreter's
// per-row order: the right side runs only at rows where the left side
// succeeded, and the reported failure is the one from the lowest row.
func tbinOperands(ev *TypedEval, b *TBatch, sel []int, l, r *texpr) (lo, ro *Vector, bounded []int, errRow int, err error) {
	lo, ler, lerr := l.eval(ev, b, sel)
	selEval := selBefore(sel, ler)
	ro, rer, rerr := r.eval(ev, b, selEval)
	errRow, err = ler, lerr
	if rerr != nil {
		// selEval only holds rows before ler, so rer < ler.
		errRow, err = rer, rerr
	}
	return lo, ro, selBefore(sel, errRow), errRow, err
}

// cmpNode is the typed comparison node: both operands, then cmpKernel.
func (c *typedCompiler) cmpNode(l, r *texpr, op string) *texpr {
	kind := cmpOpKind(op)
	id := c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		lo, ro, rows, errRow, err := tbinOperands(ev, b, sel, l, r)
		out := &ev.vecs[id]
		if cr, cerr := cmpKernel(ev, out, lo, ro, rows, kind); cerr != nil {
			return out, cr, cerr
		}
		return out, errRow, err
	}}
}

// cmpKernel is the typed comparison kernel: it writes lo <kind> ro at the
// rows into out and returns the first row whose comparison fails (-1 when
// none does). The int64/float64 pairs (in all four combinations), the
// string pair and the bool pair run native loops that mirror value.Compare
// bug-for-bug — int64 operands widen to float64 (so values beyond 2^53
// compare equal when their float images do) and NaN compares equal to
// everything — and anything else falls back per element to the boxed
// comparison.
func cmpKernel(ev *TypedEval, out, lo, ro *Vector, rows []int, kind uint8) (int, error) {
	if len(rows) == 0 {
		return -1, nil
	}
	ob, on := out.BoolBuf(ev.cap)
	switch {
	case lo.Kind == VecInt && ro.Kind == VecInt:
		ln, rn := ev.nullsOf(lo), ev.nullsOf(ro)
		for _, rw := range rows {
			if ln[rw] || rn[rw] {
				on[rw] = true
				continue
			}
			lf, rf := float64(lo.Ints[rw]), float64(ro.Ints[rw])
			cv := 0
			if lf < rf {
				cv = -1
			} else if lf > rf {
				cv = 1
			}
			ob[rw], on[rw] = cmpKindHolds(kind, cv), false
		}
	case lo.Kind == VecFloat && ro.Kind == VecFloat:
		ln, rn := ev.nullsOf(lo), ev.nullsOf(ro)
		for _, rw := range rows {
			if ln[rw] || rn[rw] {
				on[rw] = true
				continue
			}
			lf, rf := lo.Floats[rw], ro.Floats[rw]
			cv := 0
			if lf < rf {
				cv = -1
			} else if lf > rf {
				cv = 1
			}
			ob[rw], on[rw] = cmpKindHolds(kind, cv), false
		}
	case lo.Kind == VecInt && ro.Kind == VecFloat:
		ln, rn := ev.nullsOf(lo), ev.nullsOf(ro)
		for _, rw := range rows {
			if ln[rw] || rn[rw] {
				on[rw] = true
				continue
			}
			lf, rf := float64(lo.Ints[rw]), ro.Floats[rw]
			cv := 0
			if lf < rf {
				cv = -1
			} else if lf > rf {
				cv = 1
			}
			ob[rw], on[rw] = cmpKindHolds(kind, cv), false
		}
	case lo.Kind == VecFloat && ro.Kind == VecInt:
		ln, rn := ev.nullsOf(lo), ev.nullsOf(ro)
		for _, rw := range rows {
			if ln[rw] || rn[rw] {
				on[rw] = true
				continue
			}
			lf, rf := lo.Floats[rw], float64(ro.Ints[rw])
			cv := 0
			if lf < rf {
				cv = -1
			} else if lf > rf {
				cv = 1
			}
			ob[rw], on[rw] = cmpKindHolds(kind, cv), false
		}
	case lo.Kind == VecStr && ro.Kind == VecStr:
		ln, rn := ev.nullsOf(lo), ev.nullsOf(ro)
		for _, rw := range rows {
			if ln[rw] || rn[rw] {
				on[rw] = true
				continue
			}
			ls, rs := lo.Strs[rw], ro.Strs[rw]
			cv := 0
			if ls < rs {
				cv = -1
			} else if ls > rs {
				cv = 1
			}
			ob[rw], on[rw] = cmpKindHolds(kind, cv), false
		}
	case lo.Kind == VecBool && ro.Kind == VecBool:
		ln, rn := ev.nullsOf(lo), ev.nullsOf(ro)
		for _, rw := range rows {
			if ln[rw] || rn[rw] {
				on[rw] = true
				continue
			}
			li, ri := 0, 0
			if lo.Bools[rw] {
				li = 1
			}
			if ro.Bools[rw] {
				ri = 1
			}
			ob[rw], on[rw] = cmpKindHolds(kind, li-ri), false
		}
	default:
		for _, rw := range rows {
			la, ra := lo.ValueAt(rw), ro.ValueAt(rw)
			if la.IsNull() || ra.IsNull() {
				on[rw] = true
				continue
			}
			cv, ok, cerr := value.Compare(la, ra)
			if cerr != nil {
				return rw, cerr
			}
			if !ok {
				on[rw] = true
				continue
			}
			ob[rw], on[rw] = cmpKindHolds(kind, cv), false
		}
	}
	return -1, nil
}

// betweenNode evaluates x, lo and hi once each, every one at the rows
// before the earliest failure so far, then runs the comparison kernel for
// x >= lo and x <= hi. Like the interpreter there is no short-circuit:
// a row's error is the first of x, lo, hi, the lo comparison and the hi
// comparison, and the result is NULL when either comparison is.
func (c *typedCompiler) betweenNode(x, lo, hi *texpr, negated bool) *texpr {
	geID, leID, id := c.newVec(), c.newVec(), c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		xo, errRow, err := x.eval(ev, b, sel)
		loo, er, lerr := lo.eval(ev, b, selBefore(sel, errRow))
		if lerr != nil {
			errRow, err = er, lerr
		}
		hio, er, herr := hi.eval(ev, b, selBefore(sel, errRow))
		if herr != nil {
			errRow, err = er, herr
		}
		rows := selBefore(sel, errRow)
		ge, le, out := &ev.vecs[geID], &ev.vecs[leID], &ev.vecs[id]
		if cr, cerr := cmpKernel(ev, ge, xo, loo, rows, cmpOpKind(">=")); cerr != nil {
			errRow, err, rows = cr, cerr, selBefore(rows, cr)
		}
		if cr, cerr := cmpKernel(ev, le, xo, hio, rows, cmpOpKind("<=")); cerr != nil {
			errRow, err, rows = cr, cerr, selBefore(rows, cr)
		}
		ob, on := out.BoolBuf(ev.cap)
		for _, r := range rows {
			if ge.Nulls[r] || le.Nulls[r] {
				on[r] = true
				continue
			}
			ob[r], on[r] = (ge.Bools[r] && le.Bools[r]) != negated, false
		}
		return out, errRow, err
	}}
}

// inNode evaluates x IN (items) with the interpreter's per-row loop over
// the list: item i runs only at the rows still undecided — x not NULL, no
// earlier item equal, no error yet — the live-selection pattern of the
// AND/OR spines. A NULL comparison marks the row as having seen a NULL; a
// row whose comparison fails reports that error.
func (c *typedCompiler) inNode(x *texpr, items []*texpr, negated bool) *texpr {
	eqID, id, stID, liveID := c.newVec(), c.newVec(), c.newState(), c.newSel()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		xo, errRow, err := x.eval(ev, b, sel)
		out := &ev.vecs[id]
		st := ev.states[stID]
		live := ev.sels[liveID][:0]
		for _, r := range selBefore(sel, errRow) {
			if xo.NullAt(r) {
				st[r] = sNull // decided: a NULL x is never compared
				continue
			}
			st[r] = sFalse
			live = append(live, r)
		}
		eq := &ev.vecs[eqID]
		for _, item := range items {
			if len(live) == 0 {
				break
			}
			io, ier, ierr := item.eval(ev, b, live)
			if ierr != nil {
				// ier is a live row, so strictly below any previous bound.
				errRow, err, live = ier, ierr, selBefore(live, ier)
			}
			if cr, cerr := cmpKernel(ev, eq, xo, io, live, cmpOpKind("=")); cerr != nil {
				errRow, err, live = cr, cerr, selBefore(live, cr)
			}
			w := 0
			for _, r := range live {
				if eq.Nulls[r] {
					st[r] = sNull
				} else if eq.Bools[r] {
					st[r] = sTrue
					continue
				}
				live[w] = r
				w++
			}
			live = live[:w]
		}
		ob, on := out.BoolBuf(ev.cap)
		for _, r := range selBefore(sel, errRow) {
			switch st[r] {
			case sTrue:
				ob[r], on[r] = !negated, false
			case sNull:
				on[r] = true
			default:
				ob[r], on[r] = negated, false
			}
		}
		return out, errRow, err
	}}
}

// arithNode is the typed arithmetic kernel: the int64 paths of + - * %
// (wraparound, like value.Arith) and the float64 paths (division always
// float, identical zero-divisor errors) are inlined per operand-kind pair;
// everything else — string concatenation, type errors, boxed operands —
// falls back per element to value.Arith.
func (c *typedCompiler) arithNode(l, r *texpr, op string) *texpr {
	id := c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		lo, ro, rows, errRow, err := tbinOperands(ev, b, sel, l, r)
		out := &ev.vecs[id]
		if len(rows) == 0 {
			return out, errRow, err
		}
		bothInt := lo.Kind == VecInt && ro.Kind == VecInt
		numeric := (lo.Kind == VecInt || lo.Kind == VecFloat) && (ro.Kind == VecInt || ro.Kind == VecFloat)
		switch {
		case bothInt && op != "/":
			vals, nulls := out.IntBuf(ev.cap)
			ln, rn := ev.nullsOf(lo), ev.nullsOf(ro)
			for _, rw := range rows {
				if ln[rw] || rn[rw] {
					nulls[rw] = true
					continue
				}
				la, ra := lo.Ints[rw], ro.Ints[rw]
				switch op {
				case "+":
					vals[rw] = la + ra
				case "-":
					vals[rw] = la - ra
				case "*":
					vals[rw] = la * ra
				default: // "%"
					if ra == 0 {
						_, aerr := value.Arith(op, value.Int(la), value.Int(ra))
						return out, rw, aerr
					}
					vals[rw] = la % ra
				}
				nulls[rw] = false
			}
		case numeric && op != "%":
			vals, nulls := out.FloatBuf(ev.cap)
			ln, rn := ev.nullsOf(lo), ev.nullsOf(ro)
			for _, rw := range rows {
				if ln[rw] || rn[rw] {
					nulls[rw] = true
					continue
				}
				var lf, rf float64
				if lo.Kind == VecInt {
					lf = float64(lo.Ints[rw])
				} else {
					lf = lo.Floats[rw]
				}
				if ro.Kind == VecInt {
					rf = float64(ro.Ints[rw])
				} else {
					rf = ro.Floats[rw]
				}
				switch op {
				case "+":
					vals[rw] = lf + rf
				case "-":
					vals[rw] = lf - rf
				case "*":
					vals[rw] = lf * rf
				default: // "/"
					if rf == 0 {
						_, aerr := value.Arith(op, lo.ValueAt(rw), ro.ValueAt(rw))
						return out, rw, aerr
					}
					vals[rw] = lf / rf
				}
				nulls[rw] = false
			}
		default:
			cells := out.BoxedBuf(ev.cap)
			for _, rw := range rows {
				v, aerr := value.Arith(op, lo.ValueAt(rw), ro.ValueAt(rw))
				if aerr != nil {
					return out, rw, aerr
				}
				cells[rw] = v
			}
		}
		return out, errRow, err
	}}
}

// likeNode vectorizes LIKE with the constant-pattern specializations of
// the interpreter; with a string column operand the matcher runs straight
// over the native payload.
func (c *typedCompiler) likeNode(l, r *texpr, rc *constVal) *texpr {
	if rc != nil {
		switch {
		case rc.err != nil:
			n, _, _ := c.constNode(constVal{err: rc.err})
			return n
		case rc.v.IsNull():
			id := c.newVec()
			return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
				_, er, lerr := l.eval(ev, b, sel)
				out := &ev.vecs[id]
				_, on := out.BoolBuf(ev.cap)
				for _, rw := range selBefore(sel, er) {
					on[rw] = true
				}
				return out, er, lerr
			}}
		case rc.v.Type() == value.StringType:
			pat := rc.v.AsString()
			match := likeMatcher(pat)
			if match == nil {
				rx, err := compileLike(pat)
				if err != nil {
					break // defer the pattern error to evaluation, like the interpreter
				}
				match = rx.MatchString
			}
			rt := rc.v.Type()
			id := c.newVec()
			return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
				lo, er, lerr := l.eval(ev, b, sel)
				out := &ev.vecs[id]
				rows := selBefore(sel, er)
				if len(rows) == 0 {
					return out, er, lerr
				}
				ob, on := out.BoolBuf(ev.cap)
				if lo.Kind == VecStr {
					ln := ev.nullsOf(lo)
					for _, rw := range rows {
						if ln[rw] {
							on[rw] = true
							continue
						}
						ob[rw], on[rw] = match(lo.Strs[rw]), false
					}
					return out, er, lerr
				}
				for _, rw := range rows {
					lv := lo.ValueAt(rw)
					if lv.IsNull() {
						on[rw] = true
						continue
					}
					if lv.Type() != value.StringType {
						return out, rw, fmt.Errorf("eval: LIKE requires strings, got %v and %v", lv.Type(), rt)
					}
					ob[rw], on[rw] = match(lv.AsString()), false
				}
				return out, er, lerr
			}}
		}
	}
	id := c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		lo, ro, rows, errRow, err := tbinOperands(ev, b, sel, l, r)
		out := &ev.vecs[id]
		cells := out.BoxedBuf(ev.cap)
		for _, rw := range rows {
			v, lerr := evalLike(lo.ValueAt(rw), ro.ValueAt(rw))
			if lerr != nil {
				return out, rw, lerr
			}
			cells[rw] = v
		}
		return out, errRow, err
	}}
}

// float1 maps the unary scalar functions whose non-NULL numeric result is
// exactly Float(f(x)) — oneNumKernel semantics — to their float kernels.
// ABS is included for float operands only (its integer path returns INT
// and has a MinInt64 special case, so integer ABS stays on the shared
// kernel).
var float1 = map[string]func(float64) float64{
	"ABS":     math.Abs,
	"SQRT":    math.Sqrt,
	"FLOOR":   math.Floor,
	"CEIL":    math.Ceil,
	"CEILING": math.Ceil,
	"LOG":     math.Log,
	"LOG10":   math.Log10,
	"EXP":     math.Exp,
	"SIN":     math.Sin,
	"COS":     math.Cos,
	"RADIANS": func(x float64) float64 { return x * math.Pi / 180 },
	"DEGREES": func(x float64) float64 { return x * 180 / math.Pi },
}

// compileFunc checks the function name and arity at compile time (after
// the arguments, whose binding errors come first), folds all-constant
// calls, and vectorizes the rest.
func (c *typedCompiler) compileFunc(n *sqlparse.FuncCall) (*texpr, *constVal, error) {
	name := strings.ToUpper(n.Name)
	args, allConst, err := c.compileArgs(n.Args)
	if err != nil {
		return nil, nil, err
	}
	k1, k2 := scalar1[name], scalar2[name]
	switch {
	case k1 != nil && len(args) != 1:
		return nil, nil, arityErr(name, 1, len(args))
	case k2 != nil && len(args) != 2:
		return nil, nil, arityErr(name, 2, len(args))
	case k1 == nil && k2 == nil && name != "COALESCE":
		return nil, nil, fmt.Errorf("eval: unknown function %q", n.Name)
	}
	if allConst {
		return c.foldConst(n)
	}
	switch {
	case k1 != nil:
		return c.func1Node(name, k1, args[0]), nil, nil
	case k2 != nil:
		return c.func2Node(k2, args[0], args[1]), nil, nil
	}
	return c.coalesceNode(args), nil, nil
}

// func1Node loops a unary kernel, with a native float fast path for the
// numeric functions over float (and, except ABS, int) vectors.
func (c *typedCompiler) func1Node(name string, k kernel1, a *texpr) *texpr {
	fk := float1[name]
	id := c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		ao, er, aerr := a.eval(ev, b, sel)
		out := &ev.vecs[id]
		rows := selBefore(sel, er)
		if len(rows) == 0 {
			return out, er, aerr
		}
		if fk != nil && (ao.Kind == VecFloat || ao.Kind == VecInt && name != "ABS") {
			vals, nulls := out.FloatBuf(ev.cap)
			an := ev.nullsOf(ao)
			if ao.Kind == VecFloat {
				for _, rw := range rows {
					if an[rw] {
						nulls[rw] = true
						continue
					}
					vals[rw], nulls[rw] = fk(ao.Floats[rw]), false
				}
			} else {
				for _, rw := range rows {
					if an[rw] {
						nulls[rw] = true
						continue
					}
					vals[rw], nulls[rw] = fk(float64(ao.Ints[rw])), false
				}
			}
			return out, er, aerr
		}
		cells := out.BoxedBuf(ev.cap)
		for _, rw := range rows {
			v, kerr := k(ao.ValueAt(rw))
			if kerr != nil {
				return out, rw, kerr
			}
			cells[rw] = v
		}
		return out, er, aerr
	}}
}

// func2Node loops a binary kernel over the boxed operand values.
func (c *typedCompiler) func2Node(k kernel2, a, bb *texpr) *texpr {
	id := c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		ao, bo, rows, errRow, err := tbinOperands(ev, b, sel, a, bb)
		out := &ev.vecs[id]
		cells := out.BoxedBuf(ev.cap)
		for _, rw := range rows {
			v, kerr := k(ao.ValueAt(rw), bo.ValueAt(rw))
			if kerr != nil {
				return out, rw, kerr
			}
			cells[rw] = v
		}
		return out, errRow, err
	}}
}

// coalesceNode evaluates every argument at every row — no short-circuit,
// so a later argument's error still fires, as in the interpreter — each
// at the rows before the earliest failure so far, and keeps the first
// non-NULL value per row. A typed first argument with no NULL at those
// rows is the result as it stands.
func (c *typedCompiler) coalesceNode(args []*texpr) *texpr {
	id := c.newVec()
	return &texpr{fn: func(ev *TypedEval, b *TBatch, sel []int) (*Vector, int, error) {
		a0, errRow, err := args[0].eval(ev, b, sel)
		rows := selBefore(sel, errRow)
		if len(rows) > 0 && a0.Kind != VecBoxed && !anyNull(a0.Nulls, rows) {
			for _, a := range args[1:] {
				if _, er, aerr := a.eval(ev, b, selBefore(sel, errRow)); aerr != nil {
					errRow, err = er, aerr
				}
			}
			return a0, errRow, err
		}
		out := &ev.vecs[id]
		cells := out.BoxedBuf(ev.cap)
		for _, r := range rows {
			cells[r] = a0.ValueAt(r)
		}
		for _, a := range args[1:] {
			ao, er, aerr := a.eval(ev, b, selBefore(sel, errRow))
			if aerr != nil {
				errRow, err = er, aerr
			}
			for _, r := range selBefore(sel, errRow) {
				if cells[r].IsNull() {
					cells[r] = ao.ValueAt(r)
				}
			}
		}
		return out, errRow, err
	}}
}

// anyNull reports whether a null mask (nil: no NULLs) marks any of rows.
func anyNull(nulls []bool, rows []int) bool {
	if nulls == nil {
		return false
	}
	for _, r := range rows {
		if nulls[r] {
			return true
		}
	}
	return false
}

// likeMatcher translates the common simple LIKE shapes — exact ("abc"),
// prefix ("abc%"), suffix ("%abc"), substring ("%abc%") and match-all
// ("%", "%%") — into direct string predicates, skipping the regexp engine
// entirely. Patterns with "_" or interior "%" return nil and fall back to
// the compiled regexp, whose semantics these shortcuts mirror exactly
// (the differential fuzzer cross-checks them against the interpreter's
// regexp path).
func likeMatcher(pat string) func(string) bool {
	if strings.ContainsRune(pat, '_') {
		return nil
	}
	switch strings.Count(pat, "%") {
	case 0:
		return func(s string) bool { return s == pat }
	case 1:
		switch {
		case strings.HasSuffix(pat, "%"):
			p := pat[:len(pat)-1]
			return func(s string) bool { return strings.HasPrefix(s, p) }
		case strings.HasPrefix(pat, "%"):
			suf := pat[1:]
			return func(s string) bool { return strings.HasSuffix(s, suf) }
		}
	case 2:
		if strings.HasPrefix(pat, "%") && strings.HasSuffix(pat, "%") && len(pat) >= 2 {
			mid := pat[1 : len(pat)-1]
			return func(s string) bool { return strings.Contains(s, mid) }
		}
	}
	return nil
}
