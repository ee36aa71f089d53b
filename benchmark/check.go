package main

import (
	"math"

	"skyquery/internal/value"
)

// answer identifies a result set independent of row order: the row count
// plus the wrapping sum of per-row hashes. Every timed query's answer is
// compared with the oracle's (see expectedAnswers).
type answer struct {
	rows int
	hash uint64
}

func (a *answer) add(row []value.Value) {
	a.rows++
	a.hash += hashRow(row)
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// hashRow hashes a row's typed cells by their raw payloads: no text
// rendering, so draining a 19k-row result adds well under a millisecond to
// the timed window.
func hashRow(row []value.Value) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		var x uint64
		switch v.Type() {
		case value.IntType:
			x = uint64(v.AsInt())
		case value.FloatType:
			f, _ := v.AsFloat()
			x = math.Float64bits(f)
		case value.StringType:
			s := v.AsString()
			for i := 0; i < len(s); i++ {
				x = x*0x100000001b3 ^ uint64(s[i])
			}
		case value.BoolType:
			if v.AsBool() {
				x = 1
			}
		}
		h = mix(h ^ x ^ uint64(v.Type())<<59)
	}
	return h
}
