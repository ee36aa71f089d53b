package eval

// This file defines the typed column vectors the batch engine
// (CompileTyped, typed.go) evaluates over, and the slab pools their
// payloads are drawn from. A Vector is one batch column: a native payload
// slice — []int64, []float64, []string or []bool — plus a null mask, or a
// boxed []value.Value fallback for columns whose cells mix types. The
// storage engine hands out zero-copy views over its typed column backends
// (Table.ColumnView slices directly into table memory), so a base-table
// scan feeds typed kernels without boxing a single cell; gather
// sites (HTM candidate lists, chain-step candidates, dataset transposes)
// fill pooled scratch payloads instead.
//
// Ownership: a Vector either *views* memory it does not own (Set*View,
// never written through) or *owns* pooled scratch obtained from the slab
// pools ( *Buf methods). A given vector must stay in one mode for its
// lifetime; Release returns owned payloads to the pools. The pools are
// plain sync.Pools, so steady-state federated queries stop re-allocating
// batch scratch per call.

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"unsafe"

	"skyquery/internal/value"
)

// VecKind discriminates a Vector's payload representation.
type VecKind uint8

const (
	// VecBoxed is the fallback payload: one value.Value per row, nulls
	// carried inside the values (Nulls is unused).
	VecBoxed VecKind = iota
	// VecInt is an int64 payload with a null mask.
	VecInt
	// VecFloat is a float64 payload with a null mask.
	VecFloat
	// VecStr is a string payload with a null mask.
	VecStr
	// VecBool is a bool payload with a null mask.
	VecBool
)

// Vector is one batch column in native form: exactly one payload slice is
// active (per Kind), indexed by batch position. For the typed kinds, Nulls
// marks NULL rows; a nil Nulls means no row is NULL. The exported slices
// let kernels and storage fillers loop over raw memory; everything else
// should go through ValueAt/NullAt.
type Vector struct {
	Kind   VecKind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []bool
	Boxed  []value.Value

	// owned marks payloads drawn from the slab pools (reusable in place
	// and returned by Release), as opposed to zero-copy views of storage.
	owned bool
}

// NullAt reports whether the row is NULL.
func (v *Vector) NullAt(i int) bool {
	if v.Kind == VecBoxed {
		return v.Boxed[i].IsNull()
	}
	return v.Nulls != nil && v.Nulls[i]
}

// ValueAt boxes the row as a value.Value.
func (v *Vector) ValueAt(i int) value.Value {
	switch v.Kind {
	case VecBoxed:
		return v.Boxed[i]
	case VecInt:
		if v.Nulls != nil && v.Nulls[i] {
			return value.Null
		}
		return value.Int(v.Ints[i])
	case VecFloat:
		if v.Nulls != nil && v.Nulls[i] {
			return value.Null
		}
		return value.Float(v.Floats[i])
	case VecStr:
		if v.Nulls != nil && v.Nulls[i] {
			return value.Null
		}
		return value.String(v.Strs[i])
	default: // VecBool
		if v.Nulls != nil && v.Nulls[i] {
			return value.Null
		}
		return value.Bool(v.Bools[i])
	}
}

// SetIntView makes the vector a zero-copy int64 view. vals and nulls are
// table-owned and must not be written; nulls may be nil when the caller
// knows no row is NULL.
func (v *Vector) SetIntView(vals []int64, nulls []bool) {
	v.releasePayload()
	v.Kind, v.Ints, v.Nulls, v.owned = VecInt, vals, nulls, false
}

// SetFloatView makes the vector a zero-copy float64 view.
func (v *Vector) SetFloatView(vals []float64, nulls []bool) {
	v.releasePayload()
	v.Kind, v.Floats, v.Nulls, v.owned = VecFloat, vals, nulls, false
}

// SetStrView makes the vector a zero-copy string view.
func (v *Vector) SetStrView(vals []string, nulls []bool) {
	v.releasePayload()
	v.Kind, v.Strs, v.Nulls, v.owned = VecStr, vals, nulls, false
}

// SetBoolView makes the vector a zero-copy bool view.
func (v *Vector) SetBoolView(vals []bool, nulls []bool) {
	v.releasePayload()
	v.Kind, v.Bools, v.Nulls, v.owned = VecBool, vals, nulls, false
}

// IntBuf turns the vector into an owned int64 payload of n rows (reusing
// pooled scratch when possible) and returns the value and null slices for
// the caller to fill.
func (v *Vector) IntBuf(n int) ([]int64, []bool) {
	if !v.owned || cap(v.Ints) < n {
		v.dropForOwned()
		v.Ints = getInts(n)
	}
	v.Ints = v.Ints[:n]
	v.ensureNulls(n)
	v.Kind, v.owned = VecInt, true
	return v.Ints, v.Nulls
}

// FloatBuf is IntBuf for float64 payloads.
func (v *Vector) FloatBuf(n int) ([]float64, []bool) {
	if !v.owned || cap(v.Floats) < n {
		v.dropForOwned()
		v.Floats = getFloats(n)
	}
	v.Floats = v.Floats[:n]
	v.ensureNulls(n)
	v.Kind, v.owned = VecFloat, true
	return v.Floats, v.Nulls
}

// StrBuf is IntBuf for string payloads.
func (v *Vector) StrBuf(n int) ([]string, []bool) {
	if !v.owned || cap(v.Strs) < n {
		v.dropForOwned()
		v.Strs = getStrs(n)
	}
	v.Strs = v.Strs[:n]
	v.ensureNulls(n)
	v.Kind, v.owned = VecStr, true
	return v.Strs, v.Nulls
}

// BoolBuf is IntBuf for bool payloads. The returned slices are the value
// and null masks respectively.
func (v *Vector) BoolBuf(n int) ([]bool, []bool) {
	if !v.owned || cap(v.Bools) < n {
		v.dropForOwned()
		v.Bools = getBools(n)
	}
	v.Bools = v.Bools[:n]
	v.ensureNulls(n)
	v.Kind, v.owned = VecBool, true
	return v.Bools, v.Nulls
}

// BoxedBuf turns the vector into an owned boxed payload of n rows.
func (v *Vector) BoxedBuf(n int) []value.Value {
	if !v.owned || cap(v.Boxed) < n {
		v.dropForOwned()
		v.Boxed = getBoxed(n)
	}
	v.Boxed = v.Boxed[:n]
	v.Kind, v.owned = VecBoxed, true
	return v.Boxed
}

// ensureNulls guarantees an owned null mask of n rows. The mask contents
// are whatever the caller last wrote — fillers must set every position
// they later read.
func (v *Vector) ensureNulls(n int) {
	if v.owned && cap(v.Nulls) >= n {
		v.Nulls = v.Nulls[:n]
		return
	}
	if v.owned && v.Nulls != nil {
		putBools(v.Nulls)
	}
	v.Nulls = getBools(n)
}

// dropForOwned abandons a view (or an undersized owned payload) before a
// *Buf call installs owned scratch. Undersized owned payloads go back to
// the pools; views are simply forgotten.
func (v *Vector) dropForOwned() {
	v.releasePayload()
	v.Ints, v.Floats, v.Strs, v.Bools, v.Nulls, v.Boxed = nil, nil, nil, nil, nil, nil
}

// releasePayload returns owned payloads to the slab pools.
func (v *Vector) releasePayload() {
	if !v.owned {
		return
	}
	v.owned = false
	if v.Ints != nil {
		putInts(v.Ints)
		v.Ints = nil
	}
	if v.Floats != nil {
		putFloats(v.Floats)
		v.Floats = nil
	}
	if v.Strs != nil {
		putStrs(v.Strs)
		v.Strs = nil
	}
	if v.Bools != nil {
		putBools(v.Bools)
		v.Bools = nil
	}
	if v.Nulls != nil {
		putBools(v.Nulls)
		v.Nulls = nil
	}
	if v.Boxed != nil {
		putBoxed(v.Boxed)
		v.Boxed = nil
	}
}

// Release returns the vector's owned scratch to the pools and clears it.
func (v *Vector) Release() {
	v.releasePayload()
	*v = Vector{}
}

// Broadcast fills the vector with n copies of one value, choosing the
// native kind from the value's own type so dynamic cells keep their exact
// representation (a chain step's carried columns are constant per tuple).
func (v *Vector) Broadcast(val value.Value, n int) {
	switch val.Type() {
	case value.IntType:
		vals, nulls := v.IntBuf(n)
		iv := val.AsInt()
		for i := range vals {
			vals[i], nulls[i] = iv, false
		}
	case value.FloatType:
		vals, nulls := v.FloatBuf(n)
		f, _ := val.AsFloat()
		for i := range vals {
			vals[i], nulls[i] = f, false
		}
	case value.StringType:
		vals, nulls := v.StrBuf(n)
		s := val.AsString()
		for i := range vals {
			vals[i], nulls[i] = s, false
		}
	case value.BoolType:
		vals, nulls := v.BoolBuf(n)
		b := val.AsBool()
		for i := range vals {
			vals[i], nulls[i] = b, false
		}
	default:
		cells := v.BoxedBuf(n)
		for i := range cells {
			cells[i] = val
		}
	}
}

// FillFromCells transposes n dynamically typed cells into the vector. When
// every non-NULL cell matches the declared column type the payload is
// native; the first mismatched cell falls the whole column back to the
// boxed representation, preserving each cell bit-for-bit (the chain's
// carried payload columns are typed by dataset schema but cells are
// dynamic).
func (v *Vector) FillFromCells(n int, typ value.Type, cell func(i int) value.Value) {
	boxedFallback := func() {
		cells := v.BoxedBuf(n)
		for i := 0; i < n; i++ {
			cells[i] = cell(i)
		}
	}
	switch typ {
	case value.IntType:
		vals, nulls := v.IntBuf(n)
		for i := 0; i < n; i++ {
			c := cell(i)
			switch {
			case c.IsNull():
				nulls[i] = true
			case c.Type() == value.IntType:
				vals[i], nulls[i] = c.AsInt(), false
			default:
				boxedFallback()
				return
			}
		}
	case value.FloatType:
		vals, nulls := v.FloatBuf(n)
		for i := 0; i < n; i++ {
			c := cell(i)
			switch {
			case c.IsNull():
				nulls[i] = true
			case c.Type() == value.FloatType:
				f, _ := c.AsFloat()
				vals[i], nulls[i] = f, false
			default:
				boxedFallback()
				return
			}
		}
	case value.StringType:
		vals, nulls := v.StrBuf(n)
		for i := 0; i < n; i++ {
			c := cell(i)
			switch {
			case c.IsNull():
				nulls[i] = true
			case c.Type() == value.StringType:
				vals[i], nulls[i] = c.AsString(), false
			default:
				boxedFallback()
				return
			}
		}
	case value.BoolType:
		vals, nulls := v.BoolBuf(n)
		for i := 0; i < n; i++ {
			c := cell(i)
			switch {
			case c.IsNull():
				nulls[i] = true
			case c.Type() == value.BoolType:
				vals[i], nulls[i] = c.AsBool(), false
			default:
				boxedFallback()
				return
			}
		}
	default:
		boxedFallback()
	}
}

// allPassWord is 8 mask bytes that are all 0x01: a full word of rows
// passing the compaction filter.
const allPassWord = 0x0101010101010101

// CompactTrue appends to dst the row indices in [0, n) where vals[i] is
// true and nulls[i] (when a mask is present) is not — the selection
// compaction every dense batch filter ends with. Instead of branching
// per row, it reads the two masks eight bytes at a time as uint64 words
// (a Go bool is one byte holding 0 or 1, so the pass mask is just
// vals &^ nulls) and dispatches on the word: all-zero words skip eight
// rows with one compare, all-ones words append eight indices without a
// branch per row, and mixed words walk their set bits directly. nulls
// may be nil; when non-nil it must cover [0, n).
func CompactTrue(dst []int, vals, nulls []bool, n int) []int {
	i := 0
	if n >= 8 {
		vb := unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), n)
		var nb []byte
		if nulls != nil {
			nb = unsafe.Slice((*byte)(unsafe.Pointer(&nulls[0])), n)
		}
		for ; i+8 <= n; i += 8 {
			w := binary.LittleEndian.Uint64(vb[i:])
			if nb != nil {
				w &^= binary.LittleEndian.Uint64(nb[i:])
			}
			switch w {
			case 0:
			case allPassWord:
				dst = append(dst, i, i+1, i+2, i+3, i+4, i+5, i+6, i+7)
			default:
				for ; w != 0; w &= w - 1 {
					dst = append(dst, i+(bits.TrailingZeros64(w)>>3))
				}
			}
		}
	}
	for ; i < n; i++ {
		if vals[i] && (nulls == nil || !nulls[i]) {
			dst = append(dst, i)
		}
	}
	return dst
}

// TBatch is a column-major buffer of rows: one Vector per row slot.
// Callers fill exactly the columns a program references (Refs) — via
// zero-copy views, typed gathers, broadcasts or cell transposes — and
// SetLen to the row count. Reuse it across batches; Release returns all
// owned scratch to the pools.
type TBatch struct {
	cols   []Vector
	filled []bool
	n      int
	cap    int
}

// NewTBatch creates a typed batch with the given slot width and capacity.
func NewTBatch(width, capacity int) *TBatch {
	if capacity < 1 {
		capacity = 1
	}
	return &TBatch{cols: make([]Vector, width), filled: make([]bool, width), cap: capacity}
}

// Width returns the slot width.
func (b *TBatch) Width() int { return len(b.cols) }

// Len returns the current row count.
func (b *TBatch) Len() int { return b.n }

// SetLen sets the current row count (at most Cap).
func (b *TBatch) SetLen(n int) {
	if n < 0 || n > b.cap {
		panic("eval: typed batch length out of range")
	}
	b.n = n
}

// Col returns the slot's vector for the caller to fill, marking the slot
// filled (the structural check programs run per batch).
func (b *TBatch) Col(slot int) *Vector {
	b.filled[slot] = true
	return &b.cols[slot]
}

// Release returns every owned column payload to the slab pools.
func (b *TBatch) Release() {
	for i := range b.cols {
		b.cols[i].Release()
		b.filled[i] = false
	}
}

// ResetFilled clears the fill markers so a pooled batch can be reused by
// the next query without stale columns masking the structural checks.
// Zero-copy views are dropped (they would pin table memory across
// queries); owned scratch payloads are kept for reuse.
func (b *TBatch) ResetFilled() {
	for i := range b.cols {
		if b.filled[i] && !b.cols[i].owned {
			b.cols[i] = Vector{}
		}
		b.filled[i] = false
	}
	b.n = 0
}

// Slab pools for batch scratch: selection vectors, null masks, vector
// payloads and gather buffers all come from here, so steady-state
// federated queries reuse the same slabs query after query instead of
// re-allocating per call.
type slabPool[T any] struct{ p sync.Pool }

func (s *slabPool[T]) get(n int) []T {
	if v := s.p.Get(); v != nil {
		b := *(v.(*[]T))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]T, n)
}

func (s *slabPool[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	s.p.Put(&b)
}

var (
	intSlabs   slabPool[int64]
	floatSlabs slabPool[float64]
	strSlabs   slabPool[string]
	boolSlabs  slabPool[bool]
	boxedSlabs slabPool[value.Value]
	selSlabs   slabPool[int]
	stateSlabs slabPool[uint8]
)

func getInts(n int) []int64     { return intSlabs.get(n) }
func putInts(b []int64)         { intSlabs.put(b) }
func getFloats(n int) []float64 { return floatSlabs.get(n) }
func putFloats(b []float64)     { floatSlabs.put(b) }
func getBools(n int) []bool     { return boolSlabs.get(n) }
func putBools(b []bool)         { boolSlabs.put(b) }
func getSel(n int) []int        { return selSlabs.get(n) }
func putSel(b []int)            { selSlabs.put(b) }
func getStates(n int) []uint8   { return stateSlabs.get(n) }
func putStates(b []uint8)       { stateSlabs.put(b) }

// String and boxed slabs are zeroed on put so pooled scratch does not pin
// result strings or values past the query that produced them.
func getStrs(n int) []string { return strSlabs.get(n) }
func putStrs(b []string) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = ""
	}
	strSlabs.put(b)
}

func getBoxed(n int) []value.Value { return boxedSlabs.get(n) }
func putBoxed(b []value.Value) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = value.Value{}
	}
	boxedSlabs.put(b)
}
