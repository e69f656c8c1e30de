package mmu

import (
	"fmt"
	"reflect"
	"testing"
)

// fillDistinct sets every numeric leaf of v (struct fields, array
// elements, nested structs) to a distinct nonzero value.
func fillDistinct(t *testing.T, v reflect.Value, next *uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		*next++
		v.SetUint(*next)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		*next++
		v.SetInt(int64(*next))
	default:
		t.Fatalf("Stats holds a %s leaf; teach Stats.Add and this test how to sum it", v.Type())
	}
}

// checkDoubled requires every numeric leaf of got to be twice the
// matching leaf of orig, naming the first field that is not.
func checkDoubled(t *testing.T, path string, got, orig reflect.Value) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			checkDoubled(t, path+"."+got.Type().Field(i).Name, got.Field(i), orig.Field(i))
		}
	case reflect.Array:
		for i := 0; i < got.Len(); i++ {
			checkDoubled(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), orig.Index(i))
		}
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		if got.Uint() != 2*orig.Uint() {
			t.Errorf("%s = %d after Add, want %d", path, got.Uint(), 2*orig.Uint())
		}
	default:
		if got.Int() != 2*orig.Int() {
			t.Errorf("%s = %d after Add, want %d", path, got.Int(), 2*orig.Int())
		}
	}
}

// TestStatsAddCoversEveryField keeps Stats.Add complete: every numeric
// field, nested cost struct and Books entry must be summed, so a field
// added to Stats later cannot silently drop out of the SMP and GPU
// aggregates.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a Stats
	var next uint64
	fillDistinct(t, reflect.ValueOf(&a).Elem(), &next)
	orig := a
	a.Add(a)
	checkDoubled(t, "Stats", reflect.ValueOf(a), reflect.ValueOf(orig))
}
