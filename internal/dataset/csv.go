package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadCSV parses a table from CSV. The first record must be a header.
// Column kinds are taken from schema when non-nil; otherwise they are
// inferred by scanning the data: a column is Float when every non-null
// field parses as a number, else String.
func ReadCSV(r io.Reader, schema Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: csv has no header")
	}
	header := records[0]
	body := records[1:]

	if schema == nil {
		schema = inferSchema(header, body)
	}
	if len(schema) != len(header) {
		return nil, fmt.Errorf("dataset: schema has %d columns, header has %d", len(schema), len(header))
	}
	for i, c := range schema {
		if c.Name != header[i] {
			return nil, fmt.Errorf("dataset: header column %d is %q, schema says %q", i, header[i], c.Name)
		}
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}

	t := NewTable(schema)
	for n, rec := range body {
		if len(rec) != len(schema) {
			return nil, fmt.Errorf("dataset: record %d has %d fields, want %d", n+1, len(rec), len(schema))
		}
		row := make([]Value, len(rec))
		for c, field := range rec {
			v, err := ParseValue(field, schema[c].Kind)
			if err != nil {
				return nil, fmt.Errorf("dataset: record %d column %q: %w", n+1, schema[c].Name, err)
			}
			row[c] = v
		}
		if _, err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func inferSchema(header []string, body [][]string) Schema {
	schema := make(Schema, len(header))
	for c, name := range header {
		kind := Float
		sawValue := false
		for _, rec := range body {
			if c >= len(rec) {
				continue
			}
			f := strings.TrimSpace(rec[c])
			if isNullSpelling(f) {
				continue
			}
			sawValue = true
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				kind = String
				break
			}
		}
		if !sawValue {
			kind = String
		}
		schema[c] = Column{Name: name, Kind: kind}
	}
	return schema
}

// WriteCSV encodes the table, header first. Nulls become empty fields;
// a row that is one empty field is written as "", because a blank line
// is no record to a CSV reader.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.schema))
	for i, c := range t.schema {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write csv header: %w", err)
	}
	rec := make([]string, len(t.schema))
	for i := 0; i < t.rows; i++ {
		for c := range t.schema {
			rec[c] = t.cols[c].get(i).String()
		}
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return fmt.Errorf("dataset: write csv row %d: %w", i, err)
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return fmt.Errorf("dataset: write csv row %d: %w", i, err)
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSVFile reads a table from a file path. See ReadCSV.
func LoadCSVFile(path string, schema Schema) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadCSV(f, schema)
}

// SaveCSVFile writes the table to a file path. See WriteCSV.
func (t *Table) SaveCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
