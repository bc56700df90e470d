package server

import (
	"bytes"
	"encoding/json"
	"errors"

	"repro/internal/engine"
)

// errNonFiniteJSON is the execution error for a result row-JSON cannot
// express: encoding/json refuses ±Inf and NaN. The cursor's page form
// carries them bit-exactly.
var errNonFiniteJSON = errors.New("result holds a non-finite float; JSON cannot carry it")

// rowJSON is the one place a result cell becomes JSON. The /v1/query and
// /v1/exec answers, the row-JSON fetch and both NDJSON streams write their
// rows through row, which boxes one row's cells into a reused slice and
// leaves every number and string to encoding/json.
type rowJSON struct {
	enc   *json.Encoder
	cells []any
}

// row encodes row i of rs as a JSON array and a newline. A non-finite float
// is errNonFiniteJSON and writes nothing; any other error is the writer's.
func (w *rowJSON) row(rs *engine.RowSet, i int) error {
	w.cells = w.cells[:0]
	for c := range rs.Cols {
		w.cells = append(w.cells, rs.Cols[c].Value(i).Any())
	}
	err := w.enc.Encode(&w.cells)
	var unsupported *json.UnsupportedValueError
	if errors.As(err, &unsupported) {
		return errNonFiniteJSON
	}
	return err
}

// jsonRows is the "rows" member of a JSON answer or fetch page: the rows
// of its sets, in order, as one array of arrays ([] when there are none).
type jsonRows []*engine.RowSet

func (r jsonRows) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	w := rowJSON{enc: json.NewEncoder(&buf)}
	buf.WriteByte('[')
	for _, rs := range r {
		for i := range rs.N {
			if err := w.row(rs, i); err != nil {
				return nil, err
			}
			buf.Bytes()[buf.Len()-1] = ',' // the row's newline separates rows
		}
	}
	return append(bytes.TrimSuffix(buf.Bytes(), []byte{','}), ']'), nil
}
