package vprobe

import (
	"reflect"
	"testing"
)

// TestEventLogRecordsHoldNoPointers keeps the log's records out of the
// garbage collector's scan: every field must be a number (or an array or
// struct of numbers), so a cached run's events cost no mark work however
// many it holds.
func TestEventLogRecordsHoldNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	check("logRecord", reflect.TypeOf(logRecord{}))
}
