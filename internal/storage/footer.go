package storage

// Table footer: the single atomic commit point of a disk-backed table.
// It names the schema and spatial configuration, the durable row count,
// and — per column, per sealed block — the block's offset, size, CRC and
// zone statistics in the column's block file, plus the HTM ID range of
// every sealed block. Zone maps and AnalyzePrune-driven candidate pruning
// over cold blocks therefore never touch block data: the statistics ride
// in the footer.
//
// The footer is replaced by write-temp + fsync + rename; a crash leaves
// either the old or the new file, never a mix, and block bytes written
// for a failed commit are overwritten by the next flush (offsets are
// allocated from the footer's view of each file, not from file size).
//
// Layout (little-endian; strings are u16 length + bytes):
//
//	magic "SKYFTR1\n", u32 version
//	table name
//	u32 ncols, per column: name, u8 type
//	u8 hasSpatial, if set: ra col, dec col, u32 level
//	u64 durableRows
//	per column: u32 nblocks, per block:
//	    u64 off, u32 size, u32 crc, u8 flags (1 numeric, 2 hasNaN, 4 string),
//	    f64 min, f64 max, u32 nulls, u32 rows
//	    [v2, string flag only] str min, str max
//	u8 hasHTM, if set: u32 nblocks, per block: u64 idLo, u64 idHi
//	[v2] u8 hasStats, if set: u32 ncols, per column: u32 len + stats blob
//	u32 crc32 of everything above
//
// Version 2 added per-block string zones and the maintained column
// statistics section. Version-1 footers (pre-stats stores) still decode:
// string columns then carry no zones and colStats is nil — readers fall
// back to statistics-free behavior (no string pruning, count-star
// planning).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"skyquery/internal/htm"
	"skyquery/internal/stats"
	"skyquery/internal/value"
)

const (
	footerMagic   = "SKYFTR1\n"
	footerVersion = 2
	footerName    = "footer"
)

// blockMeta locates and summarizes one sealed block in a column file.
type blockMeta struct {
	off  int64
	size uint32
	crc  uint32
	zoneStats
}

// htmRange is the HTM leaf-ID span of one sealed block's rows.
type htmRange struct {
	lo, hi htm.ID
}

// tableFooter is the decoded footer.
type tableFooter struct {
	name      string
	schema    Schema
	spatial   *SpatialConfig
	durable   int
	blocks    [][]blockMeta // [column][block]
	htmRanges []htmRange    // per block; nil without spatial config
	colStats  []*stats.Col  // per column over the durable rows; nil pre-v2
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func takeStr(data []byte) (string, []byte, error) {
	if len(data) < 2 {
		return "", nil, fmt.Errorf("storage: truncated footer string")
	}
	l := int(binary.LittleEndian.Uint16(data))
	if len(data)-2 < l {
		return "", nil, fmt.Errorf("storage: truncated footer string")
	}
	return string(data[2 : 2+l]), data[2+l:], nil
}

func encodeFooter(f *tableFooter) []byte {
	dst := append([]byte(nil), footerMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, footerVersion)
	dst = appendStr(dst, f.name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.schema)))
	for _, def := range f.schema {
		dst = appendStr(dst, def.Name)
		dst = append(dst, byte(def.Type))
	}
	if f.spatial != nil {
		dst = append(dst, 1)
		dst = appendStr(dst, f.spatial.RACol)
		dst = appendStr(dst, f.spatial.DecCol)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.spatial.Level))
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.durable))
	for _, col := range f.blocks {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(col)))
		for _, m := range col {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(m.off))
			dst = binary.LittleEndian.AppendUint32(dst, m.size)
			dst = binary.LittleEndian.AppendUint32(dst, m.crc)
			var flags byte
			if m.numeric {
				flags |= 1
			}
			if m.z.hasNaN {
				flags |= 2
			}
			if m.isStr {
				flags |= 4
			}
			dst = append(dst, flags)
			// String blocks reuse the nulls/rows slots; min/max floats are
			// written zero and the string bounds follow the record.
			nulls, rows := m.z.nulls, m.z.rows
			if m.isStr {
				nulls, rows = m.sz.nulls, m.sz.rows
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.z.min))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.z.max))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(nulls))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
			if m.isStr {
				dst = appendStr(dst, m.sz.min)
				dst = appendStr(dst, m.sz.max)
			}
		}
	}
	if f.htmRanges != nil {
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.htmRanges)))
		for _, r := range f.htmRanges {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(r.lo))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(r.hi))
		}
	} else {
		dst = append(dst, 0)
	}
	if f.colStats != nil {
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.colStats)))
		for _, c := range f.colStats {
			blob := stats.EncodeCol(c)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
			dst = append(dst, blob...)
		}
	} else {
		dst = append(dst, 0)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

func decodeFooter(data []byte) (*tableFooter, error) {
	if len(data) < len(footerMagic)+8 || string(data[:len(footerMagic)]) != footerMagic {
		return nil, fmt.Errorf("storage: bad footer magic")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("storage: footer checksum mismatch")
	}
	rest := data[len(footerMagic):]
	version := binary.LittleEndian.Uint32(rest)
	if version < 1 || version > footerVersion {
		return nil, fmt.Errorf("storage: footer version %d unsupported", version)
	}
	rest = rest[4:]
	f := &tableFooter{}
	var err error
	if f.name, rest, err = takeStr(rest); err != nil {
		return nil, err
	}
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("storage: truncated footer")
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	ncols := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	for i := 0; i < ncols; i++ {
		var name string
		if name, rest, err = takeStr(rest); err != nil {
			return nil, err
		}
		if err := need(1); err != nil {
			return nil, err
		}
		f.schema = append(f.schema, ColumnDef{Name: name, Type: value.Type(rest[0])})
		rest = rest[1:]
	}
	if err := need(1); err != nil {
		return nil, err
	}
	hasSpatial := rest[0] == 1
	rest = rest[1:]
	if hasSpatial {
		cfg := &SpatialConfig{}
		if cfg.RACol, rest, err = takeStr(rest); err != nil {
			return nil, err
		}
		if cfg.DecCol, rest, err = takeStr(rest); err != nil {
			return nil, err
		}
		if err := need(4); err != nil {
			return nil, err
		}
		cfg.Level = int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		f.spatial = cfg
	}
	if err := need(8); err != nil {
		return nil, err
	}
	f.durable = int(binary.LittleEndian.Uint64(rest))
	rest = rest[8:]
	f.blocks = make([][]blockMeta, ncols)
	for ci := 0; ci < ncols; ci++ {
		if err := need(4); err != nil {
			return nil, err
		}
		nb := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		for b := 0; b < nb; b++ {
			if err := need(41); err != nil {
				return nil, err
			}
			m := blockMeta{
				off:  int64(binary.LittleEndian.Uint64(rest)),
				size: binary.LittleEndian.Uint32(rest[8:]),
				crc:  binary.LittleEndian.Uint32(rest[12:]),
			}
			flags := rest[16]
			m.numeric = flags&1 != 0
			m.z.hasNaN = flags&2 != 0
			m.isStr = version >= 2 && flags&4 != 0
			m.z.min = math.Float64frombits(binary.LittleEndian.Uint64(rest[17:]))
			m.z.max = math.Float64frombits(binary.LittleEndian.Uint64(rest[25:]))
			nulls := int32(binary.LittleEndian.Uint32(rest[33:]))
			rows := int32(binary.LittleEndian.Uint32(rest[37:]))
			rest = rest[41:]
			if m.isStr {
				m.sz.nulls, m.sz.rows = nulls, rows
				if m.sz.min, rest, err = takeStr(rest); err != nil {
					return nil, err
				}
				if m.sz.max, rest, err = takeStr(rest); err != nil {
					return nil, err
				}
			} else {
				m.z.nulls, m.z.rows = nulls, rows
			}
			f.blocks[ci] = append(f.blocks[ci], m)
		}
	}
	if err := need(1); err != nil {
		return nil, err
	}
	hasHTM := rest[0] == 1
	rest = rest[1:]
	if hasHTM {
		if err := need(4); err != nil {
			return nil, err
		}
		nb := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		f.htmRanges = make([]htmRange, 0, nb)
		for b := 0; b < nb; b++ {
			if err := need(16); err != nil {
				return nil, err
			}
			f.htmRanges = append(f.htmRanges, htmRange{
				lo: htm.ID(binary.LittleEndian.Uint64(rest)),
				hi: htm.ID(binary.LittleEndian.Uint64(rest[8:])),
			})
			rest = rest[16:]
		}
	}
	if version >= 2 {
		if err := need(1); err != nil {
			return nil, err
		}
		hasStats := rest[0] == 1
		rest = rest[1:]
		if hasStats {
			if err := need(4); err != nil {
				return nil, err
			}
			nc := int(binary.LittleEndian.Uint32(rest))
			rest = rest[4:]
			f.colStats = make([]*stats.Col, 0, nc)
			for i := 0; i < nc; i++ {
				if err := need(4); err != nil {
					return nil, err
				}
				l := int(binary.LittleEndian.Uint32(rest))
				rest = rest[4:]
				if err := need(l); err != nil {
					return nil, err
				}
				c, err := stats.DecodeCol(rest[:l])
				if err != nil {
					return nil, err
				}
				rest = rest[l:]
				f.colStats = append(f.colStats, c)
			}
		}
	}
	return f, nil
}

// writeFooterFile commits a footer atomically (temp + fsync + rename).
func writeFooterFile(path string, f *tableFooter) error {
	tmp := path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := out.Write(encodeFooter(f)); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(path)
	return nil
}

func readFooterFile(path string) (*tableFooter, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeFooter(data)
}

// FooterInfo summarizes a table footer for tooling (skyquery-walinspect).
type FooterInfo struct {
	Table       string
	Columns     []string
	DurableRows int
	Blocks      int // sealed blocks per column
	Spatial     bool
	Level       int // HTM leaf level when Spatial
}

// InspectFooter reads and summarizes a table footer file.
func InspectFooter(path string) (*FooterInfo, error) {
	f, err := readFooterFile(path)
	if err != nil {
		return nil, err
	}
	info := &FooterInfo{Table: f.name, Columns: f.schema.Names(), DurableRows: f.durable}
	if len(f.blocks) > 0 {
		info.Blocks = len(f.blocks[0])
	}
	if f.spatial != nil {
		info.Spatial = true
		info.Level = f.spatial.Level
	}
	return info, nil
}
