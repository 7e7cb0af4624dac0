package nn

import (
	"encoding/json"
	"fmt"
	"io"

	"ovs/internal/autodiff"
)

// ParamState is the serializable snapshot of one parameter tensor. It is the
// on-disk form used by SaveParams/LoadParams and the in-memory form embedded
// into training checkpoints (internal/ckpt).
type ParamState struct {
	Name  string    `json:"name"`
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// CaptureParams snapshots the parameters into serializable records. The data
// slices are copied, so the snapshot stays stable while training continues.
// Parameter names must be unique; they key the values back on restore.
func CaptureParams(params []*autodiff.Parameter) ([]ParamState, error) {
	seen := make(map[string]bool, len(params))
	records := make([]ParamState, 0, len(params))
	for _, p := range params {
		if seen[p.Name] {
			return nil, fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		records = append(records, ParamState{
			Name:  p.Name,
			Shape: p.Value.Shape(),
			Data:  append([]float64(nil), p.Value.Data...),
		})
	}
	return records, nil
}

// RestoreParams copies captured values back into matching parameters by
// name. Every target parameter must be present exactly once with a matching
// shape and a data length consistent with that shape. All records are
// validated before any parameter is written, so a corrupt or hand-edited
// stream can never half-overwrite a model: either every parameter is
// restored or none is.
func RestoreParams(params []*autodiff.Parameter, records []ParamState) error {
	byName := make(map[string]ParamState, len(records))
	for _, rec := range records {
		if _, dup := byName[rec.Name]; dup {
			return fmt.Errorf("nn: duplicate parameter %q in stream", rec.Name)
		}
		byName[rec.Name] = rec
	}
	// Validation pass: no writes until every record checks out.
	for _, p := range params {
		rec, ok := byName[p.Name]
		if !ok {
			return fmt.Errorf("nn: parameter %q missing from stream", p.Name)
		}
		if !shapesEqual(rec.Shape, p.Value.Shape()) {
			return fmt.Errorf("nn: parameter %q shape %v does not match stored %v", p.Name, p.Value.Shape(), rec.Shape)
		}
		if len(rec.Data) != len(p.Value.Data) {
			return fmt.Errorf("nn: parameter %q has %d values for shape %v (want %d)",
				p.Name, len(rec.Data), rec.Shape, len(p.Value.Data))
		}
	}
	for _, p := range params {
		copy(p.Value.Data, byName[p.Name].Data)
	}
	return nil
}

// shapesEqual compares two shape vectors element-wise. Comparing against the
// live parameter's shape (always positive dimensions) implicitly rejects
// negative or zero dimensions in the stored record without ever constructing
// a tensor from untrusted data.
func shapesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SaveParams writes the parameters as a JSON array. Parameter names must be
// unique; they key the values back on load.
func SaveParams(w io.Writer, params []*autodiff.Parameter) error {
	records, err := CaptureParams(params)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(records)
}

// LoadParams reads a JSON array written by SaveParams and copies values into
// matching parameters by name. Every target parameter must be present in the
// stream exactly once with a matching shape; malformed input of any kind —
// bad JSON, duplicate names, shape/length mismatches, negative dimensions —
// returns an error and leaves the parameters untouched.
func LoadParams(r io.Reader, params []*autodiff.Parameter) error {
	var records []ParamState
	if err := json.NewDecoder(r).Decode(&records); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	return RestoreParams(params, records)
}
