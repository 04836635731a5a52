package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestEveryFieldIsKeyedOrListed walks machine.Config (through its device and
// fault configs) and Workload leaf by leaf. Set alone, a field must move its
// key — the cell key's ConfigDigest, or the -trace-cache file name — unless
// it is on that key's result-neutral list, where it must not.
func TestEveryFieldIsKeyedOrListed(t *testing.T) {
	rc := &DiskRecordCache{}
	for _, k := range []struct {
		zero    any
		neutral []string
		key     func(reflect.Value) string
	}{
		{machine.Config{}, []string{"Shards", "Telemetry"}, func(v reflect.Value) string {
			return fmt.Sprint(ConfigDigest(v.Interface().(machine.Config), 0, 0))
		}},
		{Workload{}, []string{"Par", "Sup"}, func(v reflect.Value) string {
			return rc.path(AlgNMSort, RecordKey(v.Interface().(Workload)))
		}},
	} {
		typ := reflect.TypeOf(k.zero)
		base := k.key(reflect.ValueOf(k.zero))
		eachLeaf(typ, nil, func(index []int, name string) {
			v := reflect.New(typ).Elem()
			setNonZero(t, v.FieldByIndex(index), name)
			moved := k.key(v) != base
			if neutral := slices.Contains(k.neutral, name); moved == neutral {
				t.Errorf("%s.%s: moves the key %v, on the result-neutral list %v", typ, name, moved, neutral)
			}
		})
	}
	cfg := NodeFor(16, 8, units.MiB)
	if ConfigDigest(cfg, 1, 0) == ConfigDigest(cfg, 0, 0) || ConfigDigest(cfg, 0, 1) == ConfigDigest(cfg, 0, 0) {
		t.Error("the retry policy does not move the cell key")
	}
}

// eachLeaf calls fn with the index path and dotted name of every non-struct
// field under typ.
func eachLeaf(typ reflect.Type, index []int, fn func(index []int, name string)) {
	for i := range typ.NumField() {
		f := typ.Field(i)
		at := append(slices.Clone(index), i)
		if f.Type.Kind() != reflect.Struct {
			fn(at, f.Name)
			continue
		}
		eachLeaf(f.Type, at, func(index []int, name string) { fn(index, f.Name+"."+name) })
	}
}

// setNonZero gives a zero field a non-zero value of its kind.
func setNonZero(t *testing.T, f reflect.Value, name string) {
	t.Helper()
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(0.5)
	case reflect.String:
		f.SetString("k")
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("%s: no non-zero value for a %s", name, f.Kind())
	}
}

// TestAppendKeyZeroFieldsAreSilent: a field whose value is zero writes no
// byte, so a struct that gains a zero-default field keys exactly as before;
// set, the field is written, exactly.
func TestAppendKeyZeroFieldsAreSilent(t *testing.T) {
	type before struct {
		N    int
		Rate float64
		Name string
		In   struct{ Lat units.Time }
	}
	type after struct {
		N     int
		Added uint64
		Rate  float64
		Name  string
		In    struct{ Lat, Added units.Time }
		Last  float64
	}
	b := appendKey(nil, reflect.ValueOf(before{N: 3, Rate: 0.25, Name: `a"b`, In: struct{ Lat units.Time }{7}}))
	a := appendKey(nil, reflect.ValueOf(after{N: 3, Rate: 0.25, Name: `a"b`, In: struct{ Lat, Added units.Time }{7, 0}}))
	if want := `N=3;Rate=0x3fd0000000000000;Name="a\"b";In={Lat=7;};`; string(b) != want {
		t.Errorf("appendKey = %s, want %s", b, want)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("a zero-default field moved the key: %s vs %s", a, b)
	}
	if got := appendKey(nil, reflect.ValueOf(after{Added: 1})); string(got) != "Added=1;" {
		t.Errorf("a set field keys as %q", got)
	}
}

// TestAppendKeyRefusesWhatItCannotName: a field of a kind appendKey has no
// exact encoding for panics, naming the field, instead of keying by address
// or by a rendering.
func TestAppendKeyRefusesWhatItCannotName(t *testing.T) {
	one := 1
	for _, v := range []any{
		struct{ P *int }{&one},
		struct{ S []int }{[]int{1}},
		struct{ M map[int]int }{map[int]int{}},
		struct{ B bool }{true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("appendKey(%T) did not panic", v)
				}
			}()
			appendKey(nil, reflect.ValueOf(v))
		}()
	}
	if got := appendKey(nil, reflect.ValueOf(struct{ P *int }{})); len(got) != 0 {
		t.Errorf("a nil pointer keys as %q, want nothing", got)
	}
}

// TestUniformIsOneRecording: workload.Uniform and "" name one distribution,
// the command line's default and the wire's, so they are one recording — in a
// supervisor's memo and in a -trace-cache directory alike.
func TestUniformIsOneRecording(t *testing.T) {
	rc, err := NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 10, Seed: 9, Threads: 4, SP: 64 * units.KiB, Dist: workload.Uniform, Sup: &Supervisor{Records: rc}}
	if _, found, err := record(AlgGNUSort, w); err != nil || found {
		t.Fatalf("first recording: found=%v err=%v", found, err)
	}
	w.Dist = ""
	if _, found, err := record(AlgGNUSort, w); err != nil || !found {
		t.Fatalf("the memo: found=%v err=%v, want the uniform recording", found, err)
	}
	w.Sup = &Supervisor{Records: rc}
	if _, found, err := record(AlgGNUSort, w); err != nil || !found {
		t.Fatalf("the trace cache: found=%v err=%v, want the uniform recording", found, err)
	}
}
