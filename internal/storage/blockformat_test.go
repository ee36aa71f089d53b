package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"skyquery/internal/value"
)

// formatRow is the fixed ingest the on-disk format is pinned against:
// every column kind, NULLs in each, empty strings and a NaN, all from
// plain arithmetic so the bytes never depend on a random source.
func formatRow(i int) []value.Value {
	row := []value.Value{
		value.Int(int64(i)*7919 - 40000),
		value.Float(184.8 + 0.4*float64(i%997)/997),
		value.Float(-0.7 + 0.4*float64(i%991)/991),
		value.Float(float64(i%113)*1.25 - 70),
		value.String("obj-" + string(rune('a'+i%26)) + string(rune('a'+i/26%26))),
		value.Bool(i%3 == 0),
	}
	if i%13 == 0 {
		row[0] = value.Null
	}
	if i%11 == 0 {
		row[3] = value.Null
	}
	if i == 1500 {
		row[3] = value.Float(math.NaN())
	}
	switch {
	case i%7 == 0:
		row[4] = value.Null
	case i%5 == 0:
		row[4] = value.String("")
	}
	if i%9 == 0 {
		row[5] = value.Null
	}
	return row
}

// formatDigests are the SHA-256 digests of every file a store holds
// after the fixed ingest below. A change to any of them changes
// the on-disk format: stores written before and after it would differ.
var formatDigests = map[string]string{
	"col_0.blk": "25571d37d81a97a6d943c93f15a4676b4ac9d0ed03c8a82a2ffd09e85d6ee21e",
	"col_1.blk": "43a99722e6a3c9faad7c1e027e064963299182f7b257dd4588a1c7dffe177096",
	"col_2.blk": "09783634c091bef37e98ad8e6a01e3b6b03c3ea5962bded334bfae9952f50f1e",
	"col_3.blk": "4859e688da1a42c9c3bd9e87eb143e81bc19dd38e995e2c1945a5c9560d467f4",
	"col_4.blk": "aac9f6841f7950020ec8ca21e47a2e6863d87f8984a7e0efe0d2b4f60c294adc",
	"col_5.blk": "15cb6ec67ca183c54b2269d44703902759c58985ec7b54e4822f32ba6956383b",
	"htm.bin":   "a8291945604f7fe596f68a4f64fa9510a9f2d100889fa3d26ee2778ca719ef2f",
	"wal.log":   "e92de2a47c890af531d5df66c20ad520765c74ea189414965c82a506fe40e7fb",
	"footer":    "02013368fdb08cd29ecf8ed891a6501e455af648d75f8148e69a92381678022c",
}

// sameCell is value identity down to the float bits (NaN equals NaN).
func sameCell(a, b value.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == value.FloatType {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}

// TestBlockFormatDigests pins the byte image of block files, HTM IDs
// and footer: three block-by-block flushes of the fixed ingest plus an
// unsealed tail, then a reopen that must serve every cell unchanged.
func TestBlockFormatDigests(t *testing.T) {
	const sealed, tail = 3 * ZoneBlockRows, 200
	dir := filepath.Join(t.TempDir(), "s")
	st, err := OpenStore(dir, StoreOptions{FlushBlocks: 1, HotBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := st.Create("obj", storeSchema(), &storeSpatial)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sealed+tail; i++ {
		if err := tbl.Append(formatRow(i)...); err != nil {
			t.Fatalf("append row %d: %v", i, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range formatDigests {
		data, err := os.ReadFile(filepath.Join(dir, "obj", name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}

	st, err = OpenStore(dir, StoreOptions{HotBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	re, ok := st.DB().Table("obj")
	if !ok {
		t.Fatal("table obj not recovered")
	}
	if info := st.Recovery()[0]; info.DurableRows != sealed || info.ReplayedRows != tail {
		t.Fatalf("recovered %d durable + %d replayed rows, want %d + %d",
			info.DurableRows, info.ReplayedRows, sealed, tail)
	}
	for i := 0; i < sealed+tail; i++ {
		got := re.Row(i)
		for ci, want := range formatRow(i) {
			if !sameCell(got[ci], want) {
				t.Fatalf("row %d col %d: got %v, want %v", i, ci, got[ci], want)
			}
		}
	}
}

// FuzzDecodeBlock feeds arbitrary bytes to the block decoder. It must
// return an error or a column of at most ZoneBlockRows rows and never
// panic, and a column that decodes must re-encode to an image that
// decodes to the same cells. The seeds are one image per column kind.
func FuzzDecodeBlock(f *testing.F) {
	for _, ci := range []int{0, 3, 4, 5} { // INT, FLOAT, STRING, BOOL
		col, err := newColumn(storeSchema()[ci].Type)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := col.append(formatRow(i)[ci]); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(col.encode(nil, 0, 40))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		col, n, err := decodeBlock(data)
		if err != nil {
			return
		}
		if n < 0 || n > ZoneBlockRows {
			t.Fatalf("decoded %d rows", n)
		}
		again, m, err := decodeBlock(col.encode(nil, 0, n))
		if err != nil || m != n {
			t.Fatalf("re-encoded image: %d rows, %v; want %d rows", m, err, n)
		}
		for i := 0; i < n; i++ {
			if a, b := col.get(i), again.get(i); !sameCell(a, b) {
				t.Fatalf("row %d: %v after re-encoding, want %v", i, b, a)
			}
		}
	})
}
