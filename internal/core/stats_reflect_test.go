package core

// The stats-completeness check (cmap.Stats.Add has the same test): a counter
// added to Stats without extending add would silently drop out of every
// multi-worker total. It fills a Stats with distinct nonzero values via
// reflection — so a field added tomorrow is swept in automatically — and
// checks that two adds double every field, nested structs included.

import (
	"reflect"
	"testing"
)

// fillDistinctInts assigns each settable integer field (recursing through
// nested structs) a distinct nonzero value.
func fillDistinctInts(v reflect.Value, next *int64) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			*next++
			f.SetInt(*next)
		case reflect.Struct:
			fillDistinctInts(f, next)
		}
	}
}

// maxMerged names the fields add merges by max instead of sum: a peak across
// concurrent workers is the largest per-worker peak, never their total.
var maxMerged = map[string]bool{"AuxBytesPeak": true}

// checkDoubled asserts got == 2*want field-by-field (or == want for the
// max-merged peaks), naming offenders.
func checkDoubled(t *testing.T, prefix string, got, want reflect.Value) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		name := prefix + got.Type().Field(i).Name
		gf, wf := got.Field(i), want.Field(i)
		switch gf.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			wantV := 2 * wf.Int()
			if maxMerged[name] {
				wantV = wf.Int() // max(x, x) == x
			}
			if gf.Int() != wantV {
				t.Errorf("Stats.add dropped or mis-merged %s: got %d, want %d",
					name, gf.Int(), wantV)
			}
		case reflect.Struct:
			checkDoubled(t, name+".", gf, wf)
		}
	}
}

func TestStatsAddAggregatesEveryField(t *testing.T) {
	var delta Stats
	n := int64(0)
	fillDistinctInts(reflect.ValueOf(&delta).Elem(), &n)
	if n == 0 {
		t.Fatal("no integer fields found in Stats — reflection walk broken")
	}
	var sum Stats
	sum.add(&delta)
	sum.add(&delta)
	checkDoubled(t, "", reflect.ValueOf(sum), reflect.ValueOf(delta))
}
