package flight

import (
	"fmt"
	"reflect"
	"testing"

	"writeavoid/internal/machine"
)

// hasPointers reports whether values of t hold any pointer the garbage
// collector would scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// The ring's slot holds no pointers and is 16 bytes, so a ring is a block
// the collector never scans, and a field added back fails here. The last
// event kind must fit the slot's kind bits.
func TestSlotIsCompactAndPointerFree(t *testing.T) {
	st := reflect.TypeOf(slot{})
	if hasPointers(st) {
		t.Fatal("ring slot holds a pointer")
	}
	if st.Size() != 16 {
		t.Fatalf("ring slot is %d bytes, want 16", st.Size())
	}
	if last := machine.EvEnd; last >= 1<<kindBits {
		t.Fatalf("event kind %d does not fit the slot's %d kind bits", last, kindBits)
	}
}

// A small ring fed far more distinct labels than it holds keeps its label
// table bounded through compaction, and every window still decodes each
// event — label, flags and all — exactly as recorded.
func TestLabelTableCompactsAndDecodesExactly(t *testing.T) {
	const capN = 8
	r := New(capN, nil)
	var all []machine.Event
	for i := 0; i < 500; i++ {
		e := machine.Event{Kind: machine.EvBegin, Label: fmt.Sprintf("s%d", i%97+i/7)}
		if i%3 == 0 {
			e = machine.Event{Kind: machine.EvStore, Arg: i % 2, Words: int64(i) << 20,
				Remote: i%5 == 0, Label: fmt.Sprintf("x%d", i)}
		}
		r.Ledger().Record([]machine.Event{e})
		all = append(all, e)
		if len(r.names) > 2*capN+17 {
			t.Fatalf("after %d events the label table holds %d labels for an %d-event ring", i+1, len(r.names), capN)
		}
		w := r.Peek("probe")
		tail := all[len(all)-len(w.Events):]
		for k, got := range w.Events {
			if want := Decode(w.FirstSeq+int64(k), tail[k]); got != want {
				t.Fatalf("after %d events, window event %d = %+v, want %+v", i+1, k, got, want)
			}
		}
	}
}
