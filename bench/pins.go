package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
)

// expectedJSON holds the correctness pins: for every section an op calls, the
// exact integer fields of the rows it returns (or its rendered text), plus
// the cache-sparse stats at seed 1. Regenerate it only with
// `go test -run TestUpdatePins -update` in this directory.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// pins maps a pin name (a section name, or "cache-sparse/seed1") to the
// pinned JSON value.
type pins map[string]json.RawMessage

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return nil, fmt.Errorf("bench: parsing testdata/expected.json: %w", err)
	}
	return p, nil
}

// check compares the exact fields of v (see exact) against the pin called
// name.
func (p pins) check(name string, v any) error {
	raw, ok := p[name]
	if !ok {
		return fmt.Errorf("pin %s: missing from testdata/expected.json", name)
	}
	got, err := exactJSON(v)
	if err != nil {
		return fmt.Errorf("pin %s: %w", name, err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("pin %s: %w", name, err)
	}
	if err := json.Unmarshal(raw, &w); err != nil {
		return fmt.Errorf("pin %s: %w", name, err)
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("pin %s: result differs from testdata/expected.json: got %s", name, clip(string(got), 300))
	}
	return nil
}

// exactJSON renders the exact part of v as JSON.
func exactJSON(v any) ([]byte, error) {
	x, _ := exact(reflect.ValueOf(v))
	return json.Marshal(x)
}

// exact keeps the parts of v that repeat bit for bit on every architecture:
// integers, strings and booleans, recursing through structs and slices.
// Floating-point values are dropped, because their last bits can differ
// across platforms. The second result is false for a dropped value.
func exact(v reflect.Value) (any, bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return nil, false
	case reflect.Struct:
		m := map[string]any{}
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if x, ok := exact(v.Field(i)); ok {
				m[f.Name] = x
			}
		}
		return m, true
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k == reflect.Float32 || k == reflect.Float64 {
			return nil, false
		}
		out := make([]any, v.Len())
		for i := range out {
			out[i], _ = exact(v.Index(i))
		}
		return out, true
	default:
		return v.Interface(), true
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
