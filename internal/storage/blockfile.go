package storage

// Column-block codec: the on-disk image of one ZoneBlockRows-row block of
// one column. Block files (one per column, named col_<i>.blk) are plain
// concatenations of these images; all framing — offsets, sizes, CRCs and
// the zone statistics of every block — lives in the table footer
// (footer.go), which is the atomic commit point. Bytes past the last
// footer-referenced block are uncommitted garbage from an interrupted
// flush and are overwritten by the next one.
//
// Image layout (little-endian throughout):
//
//	u8  kind        1=INT 2=FLOAT 3=STRING 4=BOOL
//	u32 rows
//	nulls bitmap    ceil(rows/8) bytes, bit i set = row i NULL
//	payload         INT/FLOAT: rows x u64 (float64 bits for FLOAT)
//	                STRING:    per row uvarint length + raw bytes
//	                BOOL:      value bitmap, ceil(rows/8) bytes
//
// NULL cells store their zero value in the payload (length 0 for STRING),
// exactly mirroring the in-memory columns, so a decoded block is
// bit-identical to the column slice pair it was flushed from. The header
// is written here; each kind's payload codec sits in its colKind table
// (typedcol.go) and is one of the functions below.

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	blockKindInt uint8 = iota + 1
	blockKindFloat
	blockKindString
	blockKindBool
)

// appendBools packs a bool slice as a bitmap.
func appendBools(dst []byte, bs []bool) []byte {
	n := (len(bs) + 7) / 8
	at := len(dst)
	dst = append(dst, make([]byte, n)...)
	for i, b := range bs {
		if b {
			dst[at+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// decodeBools unpacks an n-bit bitmap from the front of data.
func decodeBools(data []byte, n int) ([]bool, error) {
	if nb := (n + 7) / 8; len(data) < nb {
		return nil, fmt.Errorf("storage: truncated bitmap: need %d bytes, have %d", nb, len(data))
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = data[i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}

func appendInts(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func decodeInts(data []byte, n int) ([]int64, error) {
	if len(data) < 8*n {
		return nil, fmt.Errorf("storage: truncated INT block payload")
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vals, nil
}

func appendFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodeFloats(data []byte, n int) ([]float64, error) {
	if len(data) < 8*n {
		return nil, fmt.Errorf("storage: truncated FLOAT block payload")
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vals, nil
}

func appendStrings(dst []byte, vals []string) []byte {
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

func decodeStrings(data []byte, n int) ([]string, error) {
	vals := make([]string, n)
	for i := range vals {
		l, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < l {
			return nil, fmt.Errorf("storage: truncated STRING block payload at row %d", i)
		}
		vals[i] = string(data[k : k+int(l)])
		data = data[k+int(l):]
	}
	return vals, nil
}

// appendBlockHeader appends an image's kind byte, row count and null
// bitmap; the kind's payload follows.
func appendBlockHeader(dst []byte, kind uint8, nulls []bool) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(nulls)))
	return appendBools(dst, nulls)
}

// decodeBlock decodes one block image into a fresh column.
func decodeBlock(data []byte) (column, int, error) {
	if len(data) < 5 {
		return nil, 0, fmt.Errorf("storage: block image too short (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	if n > ZoneBlockRows {
		return nil, 0, fmt.Errorf("storage: block row count %d out of range", n)
	}
	nulls, err := decodeBools(data[5:], n)
	if err != nil {
		return nil, 0, err
	}
	payload := data[5+(n+7)/8:]
	var col column
	switch data[0] {
	case blockKindInt:
		col, err = decodeColumn(&intKind, nulls, payload)
	case blockKindFloat:
		col, err = decodeColumn(&floatKind, nulls, payload)
	case blockKindString:
		col, err = decodeColumn(&stringKind, nulls, payload)
	case blockKindBool:
		col, err = decodeColumn(&boolKind, nulls, payload)
	default:
		err = fmt.Errorf("storage: unknown block kind %d", data[0])
	}
	if err != nil {
		return nil, 0, err
	}
	return col, n, nil
}

func decodeColumn[T cellType](k *colKind[T], nulls []bool, payload []byte) (column, error) {
	vals, err := k.decode(payload, len(nulls))
	if err != nil {
		return nil, err
	}
	return &typedCol[T]{k: k, vals: vals, nulls: nulls}, nil
}
