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

// jsonRows is the "rows" member of a JSON answer or fetch page: the rows
// of its sets, in order, as one array of arrays ([] when there are none).
// It is the one place a result cell becomes JSON: each row's cells are
// boxed into a reused slice, and every number and string is left to
// encoding/json. A non-finite float is errNonFiniteJSON.
type jsonRows []*engine.RowSet

func (r jsonRows) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var cells []any
	buf.WriteByte('[')
	for _, rs := range r {
		for i := range rs.N {
			cells = cells[:0]
			for c := range rs.Cols {
				cells = append(cells, rs.Cols[c].Value(i).Any())
			}
			var unsupported *json.UnsupportedValueError
			if err := enc.Encode(&cells); errors.As(err, &unsupported) {
				return nil, errNonFiniteJSON
			} else if err != nil {
				return nil, err
			}
			buf.Bytes()[buf.Len()-1] = ',' // the row's newline separates rows
		}
	}
	return append(bytes.TrimSuffix(buf.Bytes(), []byte{','}), ']'), nil
}
