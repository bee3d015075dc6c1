package span

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},         // 30 covered
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},         // overlaps a: 20 more
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0},        // clipped to the parent: 10
		{Name: "a.child", Start: ms(15), End: ms(25), Parent: 1},   // a's child, not root's
		{Name: "empty", Start: ms(50), End: ms(50), Parent: 0},     // zero length
		{Name: "orphan", Start: ms(0), End: ms(5), Parent: 99},     // bad parent is ignored
		{Name: "outside", Start: ms(200), End: ms(210), Parent: 0}, // wholly outside: nothing
	}
	self := SelfTimes(spans)
	want := []time.Duration{ms(40), ms(20), ms(30), ms(30), ms(10), 0, ms(5), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestRecorderAndChromeExport(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("stmt", -1, 7)
	child := r.Begin("sql.parse", root, 7)
	r.End(child)
	at := r.StartOf(root)
	r.Add("core.queue", root, 7, at, ms(2))
	r.End(root)
	spans := r.Spans()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Dur() != ms(2) || spans[0].End < spans[1].End {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) != 3 || events[0]["ph"] != "X" || events[1]["name"] != "sql.parse" || events[0]["tid"] != float64(7) {
		t.Fatalf("unexpected events: %v", events)
	}
}

// The untraced run passes a nil recorder: nothing is recorded, nothing panics.
func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", -1, 0)
	r.End(id)
	r.Add("y", id, 0, 0, ms(1))
	if id != -1 || len(r.Spans()) != 0 || r.StartOf(id) != 0 {
		t.Fatal("nil recorder recorded something")
	}
}
