// Package dataset defines the tabular payload exchanged between the
// Portal and the SkyNodes: an XML-serializable result set ("a serialized
// XML encoded SOAP message", §5.3). It supports splitting large sets into
// chunks — the workaround the paper describes for XML parsers dying on
// ~10 MB messages (§6) — and a compact binary encoding used only as the
// baseline in the serialization-overhead experiment.
package dataset

import (
	"encoding/gob"
	"encoding/xml"
	"fmt"
	"io"

	"skyquery/internal/value"
)

// Column describes one column of a data set.
type Column struct {
	Name string
	Type value.Type
}

// DataSet is an ordered, typed, nullable table of values.
type DataSet struct {
	Columns []Column
	Rows    [][]value.Value
}

// New returns an empty data set with the given columns.
func New(cols ...Column) *DataSet {
	return &DataSet{Columns: cols}
}

// ColumnIndex returns the position of the named column or -1.
func (d *DataSet) ColumnIndex(name string) int {
	for i, c := range d.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Append adds a row. The row is not copied.
func (d *DataSet) Append(row []value.Value) error {
	if len(row) != len(d.Columns) {
		return fmt.Errorf("dataset: row has %d values, want %d", len(row), len(d.Columns))
	}
	d.Rows = append(d.Rows, row)
	return nil
}

// NumRows returns the number of rows.
func (d *DataSet) NumRows() int { return len(d.Rows) }

// SchemaEqual reports whether two data sets have identical column lists.
func (d *DataSet) SchemaEqual(o *DataSet) bool {
	if len(d.Columns) != len(o.Columns) {
		return false
	}
	for i := range d.Columns {
		if d.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// Split partitions the data set into chunks of at most maxRows rows each,
// all sharing the schema. An empty set yields one empty chunk so that the
// receiver still learns the schema. maxRows <= 0 means no splitting.
func (d *DataSet) Split(maxRows int) []*DataSet {
	if maxRows <= 0 || len(d.Rows) <= maxRows {
		return []*DataSet{d}
	}
	var out []*DataSet
	for start := 0; start < len(d.Rows); start += maxRows {
		end := start + maxRows
		if end > len(d.Rows) {
			end = len(d.Rows)
		}
		out = append(out, &DataSet{Columns: d.Columns, Rows: d.Rows[start:end]})
	}
	return out
}

// Join concatenates chunks produced by Split. All chunks must share the
// schema of the first.
func Join(chunks []*DataSet) (*DataSet, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("dataset: no chunks to join")
	}
	out := &DataSet{Columns: chunks[0].Columns}
	for i, c := range chunks {
		if !out.SchemaEqual(c) {
			return nil, fmt.Errorf("dataset: chunk %d schema mismatch", i)
		}
		out.Rows = append(out.Rows, c.Rows...)
	}
	return out, nil
}

// Pages is a bulk result delivered page by page: Columns is the schema,
// Next returns the next page of rows ((nil, nil) after the last), and
// Close releases the transfer (abandoning it early is legal).
type Pages interface {
	Columns() []Column
	Next() ([][]value.Value, error)
	Close() error
}

// Drain reads every remaining page of p into one data set and closes p:
// how a caller that cannot consume pages gets the whole result.
func Drain(p Pages) (*DataSet, error) {
	defer p.Close()
	out := &DataSet{Columns: p.Columns()}
	for {
		page, err := p.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			return out, nil
		}
		out.Rows = append(out.Rows, page...)
	}
}

// The XML wire format (hand-rolled for speed — partial-tuple transfer
// between chain nodes is the federation's hottest serialization path, and
// encoding/xml's reflection layer was ~4× slower on both directions):
//
//	<DataSet>
//	  <Columns><Column name="ra" type="FLOAT"></Column>...</Columns>
//	  <Rows><R><C>185.1</C><C null="true"></C>...</R>...</Rows>
//	</DataSet>
//
// Cell values are rendered with value.Encode; NULLs carry a null
// attribute instead of text.

// EncodeXML writes the data set as XML.
func (d *DataSet) EncodeXML(w io.Writer) error {
	enc := xml.NewEncoder(w)
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("dataset: encode: %w", err)
	}
	return enc.Flush()
}

var (
	nameDataSet = xml.Name{Local: "DataSet"}
	nameColumns = xml.Name{Local: "Columns"}
	nameColumn  = xml.Name{Local: "Column"}
	nameRows    = xml.Name{Local: "Rows"}
	nameRow     = xml.Name{Local: "R"}
	nameCell    = xml.Name{Local: "C"}
	attrNull    = []xml.Attr{{Name: xml.Name{Local: "null"}, Value: "true"}}
)

// MarshalXML implements xml.Marshaler so a *DataSet embeds directly in
// SOAP bodies. The data set always serializes as its canonical <DataSet>
// element regardless of the suggested start element.
func (d *DataSet) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	// Emitted token by token: the reflection encoder builds an
	// intermediate struct tree and re-walks it, which dominated the
	// chain's serialization profile.
	if err := e.EncodeToken(xml.StartElement{Name: nameDataSet}); err != nil {
		return err
	}
	if err := e.EncodeToken(xml.StartElement{Name: nameColumns}); err != nil {
		return err
	}
	for _, c := range d.Columns {
		ce := xml.StartElement{Name: nameColumn, Attr: []xml.Attr{
			{Name: xml.Name{Local: "name"}, Value: c.Name},
			{Name: xml.Name{Local: "type"}, Value: c.Type.String()},
		}}
		if err := e.EncodeToken(ce); err != nil {
			return err
		}
		if err := e.EncodeToken(ce.End()); err != nil {
			return err
		}
	}
	if err := e.EncodeToken(xml.EndElement{Name: nameColumns}); err != nil {
		return err
	}
	if err := e.EncodeToken(xml.StartElement{Name: nameRows}); err != nil {
		return err
	}
	cellStart := xml.StartElement{Name: nameCell}
	nullStart := xml.StartElement{Name: nameCell, Attr: attrNull}
	for _, row := range d.Rows {
		if err := e.EncodeToken(xml.StartElement{Name: nameRow}); err != nil {
			return err
		}
		for _, v := range row {
			if v.IsNull() {
				if err := e.EncodeToken(nullStart); err != nil {
					return err
				}
			} else {
				if err := e.EncodeToken(cellStart); err != nil {
					return err
				}
				if err := e.EncodeToken(xml.CharData(v.Encode())); err != nil {
					return err
				}
			}
			if err := e.EncodeToken(xml.EndElement{Name: nameCell}); err != nil {
				return err
			}
		}
		if err := e.EncodeToken(xml.EndElement{Name: nameRow}); err != nil {
			return err
		}
	}
	if err := e.EncodeToken(xml.EndElement{Name: nameRows}); err != nil {
		return err
	}
	return e.EncodeToken(xml.EndElement{Name: nameDataSet})
}

// UnmarshalXML implements xml.Unmarshaler with a direct token walk over
// the subtree rooted at start; see the wire-format comment above.
func (d *DataSet) UnmarshalXML(dec *xml.Decoder, start xml.StartElement) error {
	// The reflection decoder enforced the root element name via XMLName;
	// keep doing so, or a mis-framed body (a fault, a truncated response)
	// would silently decode as a legitimate zero-row result.
	if start.Name.Local != "DataSet" {
		return fmt.Errorf("dataset: expected element <DataSet>, have <%s>", start.Name.Local)
	}
	d.Columns = d.Columns[:0]
	d.Rows = d.Rows[:0]
	var buf []byte
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "Columns", "Rows":
				depth++
			case "Column":
				var name, typ string
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "name":
						name = a.Value
					case "type":
						typ = a.Value
					}
				}
				ct, err := value.ParseType(typ)
				if err != nil {
					return fmt.Errorf("dataset: column %q: %w", name, err)
				}
				d.Columns = append(d.Columns, Column{Name: name, Type: ct})
				if err := dec.Skip(); err != nil {
					return err
				}
			case "R":
				row, err := d.decodeRow(dec, t, &buf)
				if err != nil {
					return err
				}
				d.Rows = append(d.Rows, row)
			default:
				if err := dec.Skip(); err != nil {
					return err
				}
			}
		case xml.EndElement:
			if depth == 0 {
				return nil // </DataSet>
			}
			depth--
		}
	}
}

// decodeRow consumes one <R> element (start already read) and returns its
// cells decoded against the schema parsed so far.
func (d *DataSet) decodeRow(dec *xml.Decoder, start xml.StartElement, buf *[]byte) ([]value.Value, error) {
	row := make([]value.Value, 0, len(d.Columns))
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "C" {
				if err := dec.Skip(); err != nil {
					return nil, err
				}
				continue
			}
			null := false
			for _, a := range t.Attr {
				if a.Name.Local == "null" && (a.Value == "true" || a.Value == "1") {
					null = true
				}
			}
			*buf = (*buf)[:0]
		cell:
			for {
				ct, err := dec.Token()
				if err != nil {
					return nil, err
				}
				switch c := ct.(type) {
				case xml.CharData:
					*buf = append(*buf, c...)
				case xml.EndElement:
					break cell
				case xml.Comment, xml.ProcInst, xml.Directive:
					// Ignored, as the reflection decoder did.
				default:
					return nil, fmt.Errorf("dataset: row %d: unexpected token inside <C>", len(d.Rows))
				}
			}
			if len(row) >= len(d.Columns) {
				return nil, fmt.Errorf("dataset: row %d has more cells than the %d columns", len(d.Rows), len(d.Columns))
			}
			if null {
				row = append(row, value.Null)
				continue
			}
			v, err := value.Decode(string(*buf), d.Columns[len(row)].Type)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", len(d.Rows), len(row), err)
			}
			row = append(row, v)
		case xml.EndElement:
			if len(row) != len(d.Columns) {
				return nil, fmt.Errorf("dataset: row %d has %d cells, want %d", len(d.Rows), len(row), len(d.Columns))
			}
			return row, nil
		}
	}
}

// DecodeXML reads a data set written by EncodeXML.
func DecodeXML(r io.Reader) (*DataSet, error) {
	d := &DataSet{}
	if err := xml.NewDecoder(r).Decode(d); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	return d, nil
}

// gobDataSet is the columnar binary wire form used by the serialization
// benchmark as the "CORBA-style" baseline the paper compares SOAP against.
type gobDataSet struct {
	Names  []string
	Types  []uint8
	NRows  int
	Ints   map[int][]int64
	Floats map[int][]float64
	Strs   map[int][]string
	Bools  map[int][]bool
	Nulls  map[int][]bool
}

// EncodeBinary writes a compact gob encoding of the data set.
func (d *DataSet) EncodeBinary(w io.Writer) error {
	g := gobDataSet{
		NRows:  len(d.Rows),
		Ints:   map[int][]int64{},
		Floats: map[int][]float64{},
		Strs:   map[int][]string{},
		Bools:  map[int][]bool{},
		Nulls:  map[int][]bool{},
	}
	for i, c := range d.Columns {
		g.Names = append(g.Names, c.Name)
		g.Types = append(g.Types, uint8(c.Type))
		nulls := make([]bool, len(d.Rows))
		switch c.Type {
		case value.IntType:
			col := make([]int64, len(d.Rows))
			for r, row := range d.Rows {
				if row[i].IsNull() {
					nulls[r] = true
				} else {
					col[r] = row[i].AsInt()
				}
			}
			g.Ints[i] = col
		case value.FloatType:
			col := make([]float64, len(d.Rows))
			for r, row := range d.Rows {
				if row[i].IsNull() {
					nulls[r] = true
				} else {
					col[r], _ = row[i].AsFloat()
				}
			}
			g.Floats[i] = col
		case value.StringType:
			col := make([]string, len(d.Rows))
			for r, row := range d.Rows {
				if row[i].IsNull() {
					nulls[r] = true
				} else {
					col[r] = row[i].AsString()
				}
			}
			g.Strs[i] = col
		case value.BoolType:
			col := make([]bool, len(d.Rows))
			for r, row := range d.Rows {
				if row[i].IsNull() {
					nulls[r] = true
				} else {
					col[r] = row[i].AsBool()
				}
			}
			g.Bools[i] = col
		default:
			return fmt.Errorf("dataset: cannot binary-encode column type %v", c.Type)
		}
		g.Nulls[i] = nulls
	}
	return gob.NewEncoder(w).Encode(g)
}

// DecodeBinary reads an EncodeBinary stream.
func DecodeBinary(r io.Reader) (*DataSet, error) {
	var g gobDataSet
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("dataset: binary decode: %w", err)
	}
	d := &DataSet{}
	for i, name := range g.Names {
		d.Columns = append(d.Columns, Column{Name: name, Type: value.Type(g.Types[i])})
	}
	d.Rows = make([][]value.Value, g.NRows)
	for r := 0; r < g.NRows; r++ {
		d.Rows[r] = make([]value.Value, len(d.Columns))
	}
	for i, c := range d.Columns {
		nulls := g.Nulls[i]
		for r := 0; r < g.NRows; r++ {
			if nulls != nil && nulls[r] {
				d.Rows[r][i] = value.Null
				continue
			}
			switch c.Type {
			case value.IntType:
				d.Rows[r][i] = value.Int(g.Ints[i][r])
			case value.FloatType:
				d.Rows[r][i] = value.Float(g.Floats[i][r])
			case value.StringType:
				d.Rows[r][i] = value.String(g.Strs[i][r])
			case value.BoolType:
				d.Rows[r][i] = value.Bool(g.Bools[i][r])
			default:
				return nil, fmt.Errorf("dataset: bad column type %v", c.Type)
			}
		}
	}
	return d, nil
}

// XMLSize returns the exact size in bytes of the XML encoding.
func (d *DataSet) XMLSize() int {
	var n countWriter
	if err := d.EncodeXML(&n); err != nil {
		return 0
	}
	return int(n)
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
