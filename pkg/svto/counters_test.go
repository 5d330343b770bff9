package svto_test

import (
	"reflect"
	"testing"

	"svto/internal/checkpoint"
	"svto/internal/core"
	"svto/pkg/svto"
)

// TestCounterBindings walks every exported int64 field of the structs that
// keep the search counters by name and checks each against the one counter
// list: a field missing from its struct's binding, or bound to another
// counter's slot, fails.  Run-local counters that never cross a merge are
// exempt.
func TestCounterBindings(t *testing.T) {
	exempt := map[string]bool{"CheckpointWrites": true, "CheckpointErrors": true}
	bindings := []struct {
		name string
		new  func() (any, checkpoint.Counters)
	}{
		{"core.SearchStats", func() (any, checkpoint.Counters) { s := new(core.SearchStats); return s, s.Counters() }},
		{"core.Progress", func() (any, checkpoint.Counters) { p := new(core.Progress); return p, p.Counters() }},
		{"svto.Stats", func() (any, checkpoint.Counters) { s := new(svto.Stats); return s, s.Counters() }},
		{"svto.Progress", func() (any, checkpoint.Counters) { p := new(svto.Progress); return p, p.Counters() }},
	}
	int64Type := reflect.TypeOf(int64(0))
	listType := reflect.TypeOf(checkpoint.Stats{})
	for _, b := range bindings {
		ptr, _ := b.new()
		typ := reflect.TypeOf(ptr).Elem()
		bound := 0
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || f.Type != int64Type || exempt[f.Name] {
				continue
			}
			bound++
			ptr, c := b.new()
			reflect.ValueOf(ptr).Elem().Field(i).SetInt(1)
			got := c.Get()
			if _, ok := listType.FieldByName(f.Name); !ok {
				t.Errorf("%s.%s is not in the counter list", b.name, f.Name)
				continue
			}
			if v := reflect.ValueOf(got).FieldByName(f.Name).Int(); v != 1 {
				t.Errorf("%s.%s is not bound to its list slot: %+v", b.name, f.Name, got)
			}
		}
		if bound != checkpoint.NumCounters {
			t.Errorf("%s has %d counter fields, the list has %d", b.name, bound, checkpoint.NumCounters)
		}
	}
}
