package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// ReadCSV parses a table from CSV. The first record is the header (schema).
// A UTF-8 byte-order mark before the header is stripped (spreadsheet exports
// routinely carry one; left in place it silently corrupts the first
// attribute's name, so no rule would ever match it). Ragged rows — more or
// fewer fields than the header — fail with the offending line number and
// both field counts rather than misaligning values against attributes.
func ReadCSV(r io.Reader) (*Table, error) {
	s, err := StreamCSV(r)
	if err != nil {
		return nil, err
	}
	return ReadAll(s)
}

// raggedRowError describes a row whose width disagrees with the header.
func raggedRowError(line, got, want int) error {
	kind := "short"
	if got > want {
		kind = "long"
	}
	return fmt.Errorf("dataset: CSV line %d: %s row has %d fields, header has %d",
		line, kind, got, want)
}

// ReadCSVFile parses a table from the named CSV file.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}

// WriteCSV serializes the table as CSV with a header record.
func (tb *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(tb.Schema.Attrs()); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	for _, t := range tb.Tuples {
		if err := cw.Write(t.Values); err != nil {
			return fmt.Errorf("dataset: writing tuple %d: %w", t.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile serializes the table to the named file.
func (tb *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
