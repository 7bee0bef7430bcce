package analysis

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"comfase/internal/core"
)

// Append-style CSV encoders for the streaming result sinks. They produce
// output byte-identical to encoding/csv with the default configuration
// (Comma ',', UseCRLF false) writing the corresponding
// ExperimentCSVRecord/MatrixCSVRecord, but encode numeric fields with
// strconv.Append* straight into a caller-reused buffer, so the
// per-row sink path allocates nothing in steady state. Equivalence with
// encoding/csv is pinned by TestAppendRowMatchesEncodingCSV.

// appendCSVField appends one field, quoting exactly when encoding/csv
// would (field contains the comma, a quote, CR or LF; starts with a
// Unicode space; or is the literal `\.`).
func appendCSVField(buf []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c == '"' {
			buf = append(buf, '"', '"')
		} else {
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// csvFieldNeedsQuotes mirrors encoding/csv's fieldNeedsQuotes for the
// default comma and UseCRLF=false.
func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// appendCSVRecord appends the fields as one CSV row.
func appendCSVRecord(buf []byte, fields []string) []byte {
	for i, f := range fields {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, f)
	}
	return append(buf, '\n')
}

// CSVHeader returns the columns of the results schema: MatrixCSVHeader's
// for matrix grids, whose rows carry a scenario label, and
// ExperimentCSVHeader's for single campaigns.
func CSVHeader(matrix bool) []string {
	if matrix {
		return MatrixCSVHeader()
	}
	return ExperimentCSVHeader()
}

// AppendCSVHeader appends the header row of the results schema matrix
// selects.
func AppendCSVHeader(buf []byte, matrix bool) []byte {
	return appendCSVRecord(buf, CSVHeader(matrix))
}

// AppendCSVRow appends one result row (terminated with '\n') in the
// schema its scenario label selects: the matrix schema for labelled
// rows, the single-campaign one otherwise. It is the one encoding of a
// results-file row, whether a local sink writes it or a fabric worker
// ships it to the coordinator.
func AppendCSVRow(buf []byte, e core.ExperimentResult) []byte {
	if e.Spec.Scenario != "" {
		return appendMatrixCSVRow(buf, e)
	}
	return AppendExperimentCSVRow(buf, e)
}

// AppendExperimentCSVRow appends one result row (terminated with '\n')
// in the ExperimentCSVHeader schema. The encoding matches
// ExperimentCSVRecord written through encoding/csv byte for byte.
func AppendExperimentCSVRow(buf []byte, e core.ExperimentResult) []byte {
	buf = strconv.AppendInt(buf, int64(e.Spec.Nr), 10)
	buf = append(buf, ',')
	return appendExperimentTail(buf, e)
}

// appendMatrixCSVRow appends one result row in the MatrixCSVHeader
// schema (scenario column spliced after expNr).
func appendMatrixCSVRow(buf []byte, e core.ExperimentResult) []byte {
	buf = strconv.AppendInt(buf, int64(e.Spec.Nr), 10)
	buf = append(buf, ',')
	buf = appendCSVField(buf, e.Spec.Scenario)
	buf = append(buf, ',')
	return appendExperimentTail(buf, e)
}

// appendExperimentTail appends the columns shared by both schemas,
// starting at the attack label.
func appendExperimentTail(buf []byte, e core.ExperimentResult) []byte {
	buf = appendCSVField(buf, e.Spec.Attack)
	buf = append(buf, ',')
	buf = strconv.AppendFloat(buf, e.Spec.Value, 'g', -1, 64)
	buf = append(buf, ',')
	buf = strconv.AppendFloat(buf, e.Spec.Start.Seconds(), 'f', 3, 64)
	buf = append(buf, ',')
	buf = strconv.AppendFloat(buf, e.Spec.Duration.Seconds(), 'f', 3, 64)
	buf = append(buf, ',')
	buf = appendCSVField(buf, e.Outcome.String())
	buf = append(buf, ',')
	buf = strconv.AppendFloat(buf, e.MaxDecel, 'f', 4, 64)
	buf = append(buf, ',')
	buf = strconv.AppendFloat(buf, e.MaxSpeedDev, 'f', 4, 64)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(len(e.Collisions)), 10)
	buf = append(buf, ',')
	buf = appendCSVField(buf, e.Collider)
	return append(buf, '\n')
}

// Field counts of the two results schemas, for CheckCSVRow.
var (
	experimentCSVFields = len(ExperimentCSVHeader())
	matrixCSVFields     = len(MatrixCSVHeader())
)

// CheckCSVRow reports whether line is a results row exactly as
// AppendCSVRow writes it for expNr nr in the schema matrix selects: one
// CSV record, ending in a single '\n', with the schema's field count and
// nr in decimal as its first field, every field quoted exactly when
// encoding/csv would quote it. Rows that arrive from other processes are
// checked with it before they are appended to a results file. It makes
// one pass over the line and allocates nothing for an accepted row; it
// accepts exactly the lines that encoding/csv reads back as one record
// which re-encodes to the same bytes (a CR LF pair inside a quoted field
// reads back as LF, so a row whose labels hold one fails).
func CheckCSVRow(line string, matrix bool, nr int) error {
	fields := experimentCSVFields
	if matrix {
		fields = matrixCSVFields
	}
	var digits [20]byte
	want := strconv.AppendInt(digits[:0], int64(nr), 10)
	rest := line
	for i := 0; i < fields; i++ {
		var field string
		if rest != "" && rest[0] == '"' {
			// A quoted field runs to the first quote not doubled; its raw
			// content needs quoting exactly when its unescaped value does.
			end := 1
			for {
				k := strings.IndexByte(rest[end:], '"')
				if k < 0 {
					return fmt.Errorf("analysis: row %d: field %d has no closing quote", nr, i+1)
				}
				end += k + 1
				if end < len(rest) && rest[end] == '"' {
					end++
					continue
				}
				break
			}
			field = rest[1 : end-1]
			rest = rest[end:]
			if !csvFieldNeedsQuotes(field) || strings.Contains(field, "\r\n") {
				return fmt.Errorf("analysis: row %d: field %d is quoted where AppendCSVRow would not write it so", nr, i+1)
			}
		} else {
			k := strings.IndexAny(rest, ",\n")
			if k < 0 {
				return fmt.Errorf("analysis: row %d does not end in a newline", nr)
			}
			field, rest = rest[:k], rest[k:]
			if csvFieldNeedsQuotes(field) {
				return fmt.Errorf("analysis: row %d: field %d needs quotes", nr, i+1)
			}
		}
		if i == 0 && field != string(want) {
			return fmt.Errorf("analysis: row %d starts with expNr %q", nr, field)
		}
		sep := byte(',')
		if i == fields-1 {
			sep = '\n'
		}
		if rest == "" || rest[0] != sep {
			return fmt.Errorf("analysis: row %d is not exactly one %d-field CSV record as AppendCSVRow writes it", nr, fields)
		}
		rest = rest[1:]
	}
	if rest != "" {
		return fmt.Errorf("analysis: row %d is followed by more input", nr)
	}
	return nil
}
