package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"

	"mlnclean/internal/intern"
)

// RowStream yields a table one row at a time, so ingest never has to hold
// the raw table: CSV parsing, dictionary encoding, and distributed partition
// shipping all compose over it. Implementations are not safe for concurrent
// use.
type RowStream interface {
	// Schema returns the stream's attribute schema (available before the
	// first row).
	Schema() *Schema
	// Next returns the next row's values, or io.EOF after the last row. The
	// returned slice is only valid until the next call; callers that retain
	// rows must copy (Table.Append and StreamEncoder.Append both do).
	Next() ([]string, error)
}

// CSVStream is a RowStream over a CSV document: the header is consumed at
// construction, rows are parsed on demand. Error semantics are exactly
// ReadCSV's — a UTF-8 BOM before the header is stripped, and ragged rows
// fail with the offending line number and both field counts.
type CSVStream struct {
	cr     *csv.Reader
	schema *Schema
	line   int
	rec    []string // reused by the csv.Reader between calls
}

// StreamCSV opens a CSV document as a row stream, reading and validating the
// header record immediately. ReadCSV is StreamCSV drained into a Table.
func StreamCSV(r io.Reader) (*CSVStream, error) {
	br := bufio.NewReader(r)
	if bom, err := br.Peek(3); err == nil && bom[0] == 0xEF && bom[1] == 0xBB && bom[2] == 0xBF {
		br.Discard(3)
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	schema, err := NewSchema(header...)
	if err != nil {
		return nil, err
	}
	return &CSVStream{cr: cr, schema: schema, line: 1}, nil
}

// Schema returns the header-derived schema.
func (s *CSVStream) Schema() *Schema { return s.schema }

// Next parses the next data row. The returned slice is owned by the stream
// and overwritten on the following call.
func (s *CSVStream) Next() ([]string, error) {
	s.line++
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	if len(rec) > 0 {
		// Exact position from the reader (robust to quoted multi-line
		// fields and blank lines, which a plain record counter is not).
		s.line, _ = s.cr.FieldPos(0)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV line %d: %w", s.line, err)
	}
	if len(rec) != s.schema.Len() {
		return nil, raggedRowError(s.line, len(rec), s.schema.Len())
	}
	s.rec = rec
	return rec, nil
}

// fileStream closes its file once the stream is drained or errors.
type fileStream struct {
	*CSVStream
	f *os.File
}

func (s *fileStream) Next() ([]string, error) {
	row, err := s.CSVStream.Next()
	if err != nil && s.f != nil {
		s.f.Close()
		s.f = nil
	}
	return row, err
}

// StreamCSVFile opens the named CSV file as a row stream. The file is closed
// automatically when the stream reaches EOF or returns an error.
func StreamCSVFile(path string) (RowStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := StreamCSV(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileStream{CSVStream: s, f: f}, nil
}

// ReadAll drains a row stream into a table.
func ReadAll(s RowStream) (*Table, error) {
	tb := NewTable(s.Schema())
	for {
		row, err := s.Next()
		if err == io.EOF {
			return tb, nil
		}
		if err != nil {
			return nil, err
		}
		if _, err := tb.Append(row...); err != nil {
			return nil, err
		}
	}
}

// encChunkRows caps the StreamEncoder's backing chunks and encMinChunkRows
// is the first one: a chunk holds half as many rows as the table already
// does, within those limits, so allocation is amortized and a part-filled
// tail chunk wastes at most a third of a small table.
const (
	encChunkRows    = 4096
	encMinChunkRows = 256
)

// StreamEncoder builds a Table and its dictionary-encoded companion
// incrementally, one row at a time. It replicates Encode exactly — value IDs
// are assigned in row-major first-sight order — so feeding the same rows
// yields a bit-identical Encoded. Unlike ReadCSV+Encode, the raw strings are
// never duplicated: each tuple's values alias the dictionary's canonical
// strings, so a table ingested through the encoder holds one copy of every
// distinct value. A distributed run holds its whole table in one encoder;
// its parts clean views of that table and those rows, in forks of the
// encoder's dictionary.
type StreamEncoder struct {
	schema *Schema
	dict   *intern.Dict
	tb     *Table
	enc    *Encoded
	// The current backing chunks, carved per row and exhausted together.
	ids    []uint32
	vals   []string
	tuples []Tuple
}

// NewStreamEncoder creates an encoder over the schema, interning into dict
// (nil for a fresh dictionary).
func NewStreamEncoder(schema *Schema, dict *intern.Dict) *StreamEncoder {
	if dict == nil {
		dict = intern.NewDict()
	}
	return &StreamEncoder{
		schema: schema,
		dict:   dict,
		tb:     NewTable(schema),
		enc:    &Encoded{Dict: dict},
	}
}

// Append interns one row, appends the canonicalized tuple to the table, and
// records its encoded row. Returns the created tuple.
func (se *StreamEncoder) Append(values []string) (*Tuple, error) {
	return se.AppendID(len(se.tb.Tuples), values)
}

// AppendID is Append with a caller-supplied tuple ID: a distributed run
// encodes a table under its own tuple IDs this way.
func (se *StreamEncoder) AppendID(id int, values []string) (*Tuple, error) {
	if len(values) != se.schema.Len() {
		return nil, fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(values), se.schema.Len())
	}
	t, row := se.next(id)
	for j, v := range values {
		row[j] = se.dict.Intern(v)
		// The canonical interned string: identical bytes, shared backing.
		t.Values[j] = se.dict.Value(row[j])
	}
	return t, nil
}

// next carves one tuple and its encoded row from the backing chunks,
// appends both, and returns them for the caller to fill.
func (se *StreamEncoder) next(id int) (*Tuple, []uint32) {
	width := se.schema.Len()
	if len(se.tuples) == 0 {
		n := min(max(len(se.tb.Tuples)/2, encMinChunkRows), encChunkRows)
		se.ids = make([]uint32, n*width)
		se.vals = make([]string, n*width)
		se.tuples = make([]Tuple, n)
	}
	row := se.ids[:width:width]
	se.ids = se.ids[width:]
	t := &se.tuples[0]
	se.tuples = se.tuples[1:]
	t.ID, t.Values = id, se.vals[:width:width]
	se.vals = se.vals[width:]
	se.tb.Tuples = append(se.tb.Tuples, t)
	se.enc.Rows = append(se.enc.Rows, row)
	return t, row
}

// Table returns the accumulated table. Valid at any point; rows appended
// later continue to land in it.
func (se *StreamEncoder) Table() *Table { return se.tb }

// Encoded returns the accumulated encoded companion, row-aligned with
// Table().Tuples and sharing the encoder's dictionary.
func (se *StreamEncoder) Encoded() *Encoded { return se.enc }

// Dict returns the encoder's dictionary.
func (se *StreamEncoder) Dict() *intern.Dict { return se.dict }

// EncodeStream drains a row stream through a StreamEncoder: the chunked
// ingest path of the streaming pipeline. It returns the table and its
// encoded companion, equivalent to ReadAll followed by Encode but without
// ever holding a second copy of the raw strings.
func EncodeStream(s RowStream, dict *intern.Dict) (*Table, *Encoded, error) {
	se := NewStreamEncoder(s.Schema(), dict)
	for {
		row, err := s.Next()
		if err == io.EOF {
			return se.Table(), se.Encoded(), nil
		}
		if err != nil {
			return nil, nil, err
		}
		if _, err := se.Append(row); err != nil {
			return nil, nil, err
		}
	}
}
