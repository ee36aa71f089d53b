package eval

// Zone-map prune analysis: given a WHERE expression, extract the top-level
// AND conjuncts of the form  column <cmp> constant  (either operand
// order; numeric constants on numeric columns, string constants on string
// columns, and LIKE patterns with a literal prefix) whose per-block
// min/max statistics can prove whole blocks of a base-table scan
// irrelevant before any kernel runs. The storage
// layer owns the block statistics; this file owns the exactness argument,
// which must match the row engines' evaluation order and error semantics:
//
//   - A conjunct that is never TRUE on a block means the AND is never TRUE
//     there, so no row of the block can pass the WHERE filter. Skipping
//     the block is value-exact for any conjunct order (AND is TRUE only
//     when every member is).
//   - Errors are the subtle part. The row engines evaluate AND left to
//     right and short-circuit on a strictly-FALSE member, so a skipped
//     block may hide an error two ways: a conjunct *before* the pruning
//     one errors on a skipped row, or the pruning conjunct is NULL on a
//     row (NULL does not short-circuit) and a *later* conjunct errors.
//     Pruning is therefore allowed when the whole predicate is statically
//     error-free (Safe) — then only values matter and "never TRUE"
//     suffices, including all-NULL blocks — or when every conjunct before
//     the pruning one is error-free (PrefixSafe) *and* the block has no
//     NULLs in the pruned column, making the conjunct strictly FALSE on
//     every row so the short-circuit provably kills everything after it.
//
// "Error-free" is a conservative static judgment over the expression and
// the base table's column types: literals, column references, IS NULL,
// NOT, AND/OR of error-free parts, comparisons whose two sides are
// statically same-class (numeric/string/bool, NULL aside), and LIKE over
// statically-string sides cannot error at evaluation time. Arithmetic
// (division by zero), functions, IN and BETWEEN are treated as
// potentially erroring.
//
// NaN disables pruning of a float block: value.Compare treats NaN as equal
// to everything (see the cmp kernels), so no range test can bound it.

import (
	"skyquery/internal/sqlparse"
	"skyquery/internal/value"
)

// Pruner is one prunable conjunct: slot <Op> Const (already normalized so
// the column is on the left; Const is the constant widened to float64,
// exactly the image the comparison kernels compare against). String
// conjuncts (IsStr) compare against Str with the same operators, plus
// OpLikePrefix for LIKE patterns with a literal prefix: any matching
// value lies in [Str, Hi) byte-wise (Hi == "" means unbounded above).
type Pruner struct {
	Slot       int
	Op         string
	Const      float64
	Str        string // string constant (IsStr); the prefix for OpLikePrefix
	Hi         string // OpLikePrefix: exclusive upper bound of the prefix range
	IsStr      bool
	PrefixSafe bool // every conjunct before this one is statically error-free
}

// OpLikePrefix marks a LIKE conjunct reduced to a byte-range test on the
// pattern's literal prefix (the text before the first % or _). Matching
// strings start with that prefix, so they sort in [prefix,
// prefixSuccessor) — a sound range even though the pattern's tail may
// reject more rows (pruning only needs never-TRUE, not exactly-TRUE).
const OpLikePrefix = "like~"

// PruneSet is the result of AnalyzePrune.
type PruneSet struct {
	Pruners []Pruner
	// Safe reports that the whole predicate is statically error-free, so a
	// block may be pruned whenever a pruner is never TRUE on it (NULLs and
	// conjunct order don't matter).
	Safe bool
}

// NeverTrueStr is NeverTrue for string conjuncts: whether the conjunct
// is FALSE-or-NULL for every non-NULL string v in [min, max] (byte-wise
// order, exactly value.Compare's string order).
func (p Pruner) NeverTrueStr(min, max string) bool {
	switch p.Op {
	case "=":
		return p.Str < min || p.Str > max
	case "<>":
		return min == p.Str && max == p.Str
	case "<":
		return min >= p.Str
	case "<=":
		return min > p.Str
	case ">":
		return max <= p.Str
	case ">=":
		return max < p.Str
	case OpLikePrefix:
		// Every match starts with the prefix, so it is >= Str and (when
		// the successor exists) < Hi.
		return max < p.Str || (p.Hi != "" && min >= p.Hi)
	}
	return false
}

// NeverTrue reports whether v <Op> Const is FALSE-or-NULL for every
// non-NULL v in [min, max] (both widened to float64). It is the block test
// the storage layer runs against its zone maps.
func (p Pruner) NeverTrue(min, max float64) bool {
	switch p.Op {
	case "=":
		return p.Const < min || p.Const > max
	case "<>":
		return min == p.Const && max == p.Const
	case "<":
		return min >= p.Const
	case "<=":
		return min > p.Const
	case ">":
		return max <= p.Const
	default: // ">="
		return max < p.Const
	}
}

// AnalyzePrune extracts the prunable conjuncts of e. layout resolves
// column references to slots (for a base-table scan these are schema
// positions) and slotType gives each slot's declared column type. A nil
// expression has no pruners.
func AnalyzePrune(e sqlparse.Expr, layout Layout, slotType func(slot int) value.Type) PruneSet {
	if e == nil {
		return PruneSet{}
	}
	return AnalyzeChainPrune([]PruneExpr{{Expr: e, Layout: layout}}, slotType,
		func(s int) (int, bool) { return s, true })
}

// PruneExpr pairs one predicate of a chain step's evaluation sequence with
// the layout it resolves column references against. The layouts of a
// sequence must map into one shared slot space (the chain steps compile
// the local predicate and the cross predicates against layouts that agree
// on every slot both can resolve).
type PruneExpr struct {
	Expr   sqlparse.Expr
	Layout Layout
}

// AnalyzeChainPrune is AnalyzePrune over a chain step's whole predicate
// sequence: the local predicate followed by the cross predicates, in the
// step's evaluation order. It extracts the conjuncts usable *before* the
// candidate gather — comparisons of a candidate-table column against a
// numeric constant — and drops everything else (the residual program is
// the full compiled predicate sequence, unchanged: zone statistics prove
// blocks dead, they never prove a surviving row's conjunct true).
//
// candCol maps a slot of the shared slot space to its candidate-table
// column index; slots that are not candidate columns (an extend step's
// carried-tuple columns) report ok=false and never produce pruners.
//
// The error-exactness argument extends the single-expression one. The
// step evaluates: local conjuncts in order, then the chi-square gate, then
// each cross predicate's conjuncts in order. The gate only filters — it
// cannot error — so it is transparent to the prefix argument, and a
// conjunct that is strictly FALSE on every row of a block still proves
// that no row of the block survives to any later conjunct (the gate can
// only remove more rows). Safe and PrefixSafe are therefore computed over
// the concatenated conjunct sequence exactly as for a single expression.
func AnalyzeChainPrune(seq []PruneExpr, slotType func(slot int) value.Type, candCol func(slot int) (col int, ok bool)) PruneSet {
	ps := PruneSet{Safe: true}
	prefixSafe := true
	for _, pe := range seq {
		if pe.Expr == nil {
			continue
		}
		a := pruneAnalyzer{layout: pe.Layout, slotType: slotType}
		for _, m := range andConjuncts(pe.Expr, nil) {
			// A pruner's PrefixSafe is taken before its own conjunct folds
			// into the running flag: it covers the conjuncts strictly
			// before it, across the whole sequence.
			if pr, ok := a.pruner(m); ok {
				if col, isCand := candCol(pr.Slot); isCand {
					pr.Slot = col
					pr.PrefixSafe = prefixSafe
					ps.Pruners = append(ps.Pruners, pr)
				}
			}
			if !a.errFree(m) {
				prefixSafe = false
				ps.Safe = false
			}
		}
	}
	return ps
}

// andConjuncts flattens the left AND spine, mirroring the engines'
// evaluation order: members(a AND b) = members(a) ++ [b].
func andConjuncts(e sqlparse.Expr, acc []sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == "AND" {
		return append(andConjuncts(b.L, acc), b.R)
	}
	return append(acc, e)
}

type pruneAnalyzer struct {
	layout   Layout
	slotType func(int) value.Type
}

// pruner matches column-vs-literal comparisons — numeric literals on
// numeric columns, string literals on string columns — plus LIKE with a
// constant pattern carrying a literal prefix.
func (a *pruneAnalyzer) pruner(e sqlparse.Expr) (Pruner, bool) {
	b, ok := e.(*sqlparse.BinaryExpr)
	if !ok {
		return Pruner{}, false
	}
	if b.Op == "LIKE" {
		return a.likePruner(b)
	}
	var flip string
	switch b.Op {
	case "=", "<>":
		flip = b.Op
	case "<":
		flip = ">"
	case "<=":
		flip = ">="
	case ">":
		flip = "<"
	case ">=":
		flip = "<="
	default:
		return Pruner{}, false
	}
	if col, lit, ok := a.colAndLit(b.L, b.R); ok {
		return Pruner{Slot: col, Op: b.Op, Const: lit}, true
	}
	if col, lit, ok := a.colAndLit(b.R, b.L); ok {
		return Pruner{Slot: col, Op: flip, Const: lit}, true
	}
	if col, lit, ok := a.colAndStrLit(b.L, b.R); ok {
		return Pruner{Slot: col, Op: b.Op, Str: lit, IsStr: true}, true
	}
	if col, lit, ok := a.colAndStrLit(b.R, b.L); ok {
		return Pruner{Slot: col, Op: flip, Str: lit, IsStr: true}, true
	}
	return Pruner{}, false
}

// likePruner reduces  stringcol LIKE 'constant pattern'  to a prunable
// range conjunct on the pattern's literal prefix. A pattern without
// wildcards is an equality test; an empty prefix (pattern starts with a
// wildcard) prunes nothing.
func (a *pruneAnalyzer) likePruner(b *sqlparse.BinaryExpr) (Pruner, bool) {
	col, pat, ok := a.colAndStrLit(b.L, b.R)
	if !ok {
		return Pruner{}, false
	}
	prefix, wild := likeLiteralPrefix(pat)
	if !wild {
		return Pruner{Slot: col, Op: "=", Str: pat, IsStr: true}, true
	}
	if prefix == "" {
		return Pruner{}, false
	}
	return Pruner{Slot: col, Op: OpLikePrefix, Str: prefix, Hi: prefixSuccessor(prefix), IsStr: true}, true
}

// likeLiteralPrefix returns the pattern text before the first wildcard
// (% or _) and whether the pattern contains a wildcard at all.
func likeLiteralPrefix(pat string) (prefix string, wild bool) {
	for i := 0; i < len(pat); i++ {
		if pat[i] == '%' || pat[i] == '_' {
			return pat[:i], true
		}
	}
	return pat, false
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix (byte-wise), or "" when none exists (all 0xff).
func prefixSuccessor(prefix string) string {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			return prefix[:i] + string(prefix[i]+1)
		}
	}
	return ""
}

func (a *pruneAnalyzer) colAndLit(ce, le sqlparse.Expr) (slot int, lit float64, ok bool) {
	cr, ok := ce.(*sqlparse.ColumnRef)
	if !ok {
		return 0, 0, false
	}
	nl, ok := le.(*sqlparse.NumberLit)
	if !ok {
		return 0, 0, false
	}
	s, err := a.layout.Slot(cr.Table, cr.Column)
	if err != nil {
		return 0, 0, false
	}
	t := a.slotType(s)
	if t != value.IntType && t != value.FloatType {
		return 0, 0, false
	}
	// The engines' literal typing (INT for integral spellings) widens to
	// the same float64 either way.
	return s, nl.Value, true
}

// colAndStrLit is colAndLit for string-literal comparisons on string
// columns (value.Compare orders strings byte-wise, the order the string
// zone statistics are computed in).
func (a *pruneAnalyzer) colAndStrLit(ce, le sqlparse.Expr) (slot int, lit string, ok bool) {
	cr, ok := ce.(*sqlparse.ColumnRef)
	if !ok {
		return 0, "", false
	}
	sl, ok := le.(*sqlparse.StringLit)
	if !ok {
		return 0, "", false
	}
	s, err := a.layout.Slot(cr.Table, cr.Column)
	if err != nil {
		return 0, "", false
	}
	if a.slotType(s) != value.StringType {
		return 0, "", false
	}
	return s, sl.Value, true
}

// staticType returns a subexpression's statically certain value type
// (NULL aside), or ok=false when it cannot be pinned down.
func (a *pruneAnalyzer) staticType(e sqlparse.Expr) (value.Type, bool) {
	switch n := e.(type) {
	case *sqlparse.NumberLit:
		return value.FloatType, true // INT vs FLOAT both land in the numeric class
	case *sqlparse.StringLit:
		return value.StringType, true
	case *sqlparse.BoolLit:
		return value.BoolType, true
	case *sqlparse.ColumnRef:
		s, err := a.layout.Slot(n.Table, n.Column)
		if err != nil {
			return value.NullType, false
		}
		t := a.slotType(s)
		if t == value.IntType {
			t = value.FloatType // same comparison class
		}
		return t, t != value.NullType
	}
	return value.NullType, false
}

// errFree reports that evaluating e can never return an error, for any
// row of the table (NULLs included).
func (a *pruneAnalyzer) errFree(e sqlparse.Expr) bool {
	switch n := e.(type) {
	case *sqlparse.NumberLit, *sqlparse.StringLit, *sqlparse.BoolLit, *sqlparse.NullLit:
		return true
	case *sqlparse.ColumnRef:
		_, err := a.layout.Slot(n.Table, n.Column)
		return err == nil
	case *sqlparse.IsNull:
		return a.errFree(n.X)
	case *sqlparse.UnaryExpr:
		if n.Op == "NOT" {
			return a.errFree(n.X)
		}
		// Negation errors on strings and bools.
		t, ok := a.staticType(n.X)
		return ok && t == value.FloatType && a.errFree(n.X)
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "AND", "OR":
			return a.errFree(n.L) && a.errFree(n.R)
		case "=", "<>", "<", "<=", ">", ">=":
			lt, lok := a.staticType(n.L)
			rt, rok := a.staticType(n.R)
			return lok && rok && lt == rt && a.errFree(n.L) && a.errFree(n.R)
		case "LIKE":
			// LIKE is NULL-safe and its pattern compiler cannot fail (the
			// translation quotes every non-wildcard rune), so with both
			// sides statically strings it cannot error.
			lt, lok := a.staticType(n.L)
			rt, rok := a.staticType(n.R)
			return lok && rok && lt == value.StringType && rt == value.StringType &&
				a.errFree(n.L) && a.errFree(n.R)
		}
		return false // arithmetic can divide by zero or type-error
	}
	return false // functions, IN, BETWEEN, COALESCE: conservatively erroring
}
