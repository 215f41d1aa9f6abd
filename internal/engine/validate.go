package engine

// Result cache-admission validation. The solver layer already gates every
// linear solve (finite entries + residual, internal/ctmc/degrade.go); this
// is the defense-in-depth layer above it: whatever the model and cost
// post-processing derive from a solve must itself be finite in every field
// before the engine will memoize it, snapshot it, or re-admit it from a
// snapshot. A NaN that slipped into the cache would be served forever —
// warm restarts replay the cache verbatim — so admission is where the line
// is drawn.

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/core"
)

// ErrEvalPanic wraps a panic recovered inside an evaluation; ErrNonFinite
// wraps a result refused by cache admission. Both are server-side internal
// failures, not properties of the submitted configuration — the service
// layer maps them to 500 (retryable) rather than 422 (permanent).
var (
	ErrEvalPanic = errors.New("engine: evaluation panicked (recovered)")
	ErrNonFinite = errors.New("engine: refusing to cache non-finite result")
)

// ValidateResult reports the first non-finite numeric field anywhere in
// the Result (recursing through nested structs, slices, and maps), or nil
// when the value is safe to cache. It walks by reflection so a Result
// gaining fields cannot silently escape validation — the same closure-
// over-the-struct reasoning SchemaFingerprint uses.
func ValidateResult(r *core.Result) error {
	if r == nil {
		return fmt.Errorf("engine: nil result")
	}
	if path, f, ok := findNonFinite(reflect.ValueOf(*r)); ok {
		return fmt.Errorf("Result%s = %v", path, f)
	}
	return nil
}

// findNonFinite walks v and returns the path below v of the first NaN/Inf
// float encountered, and its value. The path is built only for a float it
// finds, so a finite value costs no allocation.
func findNonFinite(v reflect.Value) (path string, f float64, ok bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return "", f, true
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if path, f, ok := findNonFinite(v.Field(i)); ok {
				return "." + v.Type().Field(i).Name + path, f, true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if path, f, ok := findNonFinite(v.Index(i)); ok {
				return fmt.Sprintf("[%d]", i) + path, f, true
			}
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			if path, f, ok := findNonFinite(iter.Value()); ok {
				return fmt.Sprintf("[%v]", iter.Key()) + path, f, true
			}
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return findNonFinite(v.Elem())
		}
	}
	return "", 0, false
}
