package trace

import (
	"reflect"
	"testing"
)

// TestUsageRecordHoldsNoPointers pins UsageRecord's doc promise: a row
// holds no pointers, so the garbage collector never scans retained usage
// chunks or the sampler's batch buffer. Every field, recursively through
// structs and arrays, must be a plain scalar.
func TestUsageRecordHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: UsageRecord must hold no pointers", path, typ.Kind())
		}
	}
	walk("UsageRecord", reflect.TypeFor[UsageRecord]())
}
