package analysis

import (
	"strconv"
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

// appendCSVHeader appends the header fields as one CSV row.
func appendCSVHeader(buf []byte, fields []string) []byte {
	for i, f := range fields {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, f)
	}
	return append(buf, '\n')
}

// AppendExperimentCSVHeader appends the ExperimentCSVHeader row to buf.
func AppendExperimentCSVHeader(buf []byte) []byte {
	return appendCSVHeader(buf, ExperimentCSVHeader())
}

// AppendMatrixCSVHeader appends the MatrixCSVHeader row to buf.
func AppendMatrixCSVHeader(buf []byte) []byte {
	return appendCSVHeader(buf, MatrixCSVHeader())
}

// AppendExperimentCSVRow appends one result row (terminated with '\n')
// in the ExperimentCSVHeader schema. The encoding matches
// ExperimentCSVRecord written through encoding/csv byte for byte.
func AppendExperimentCSVRow(buf []byte, e core.ExperimentResult) []byte {
	buf = strconv.AppendInt(buf, int64(e.Spec.Nr), 10)
	buf = append(buf, ',')
	return appendExperimentTail(buf, e)
}

// AppendMatrixCSVRow appends one result row in the MatrixCSVHeader
// schema (scenario column spliced after expNr).
func AppendMatrixCSVRow(buf []byte, e core.ExperimentResult) []byte {
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
