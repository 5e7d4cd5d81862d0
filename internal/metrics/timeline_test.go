package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestTimelineNilSafe(t *testing.T) {
	// Recording into a nil timeline is a no-op, not a panic.
	var tl *Timeline
	tl.Record("a", "b", 0, time.Time{}, 0)
	tl.Span("a", "b", 0)()
}

func TestTimelineConcurrentRecordAndExport(t *testing.T) {
	tl := NewTimeline()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				done := tl.Span("work", "cell", w)
				done()
			}
		}(w)
	}
	wg.Wait()
	if len(tl.spans) != 200 {
		t.Fatalf("recorded %d spans, want 200", len(tl.spans))
	}

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(events) != 200 {
		t.Fatalf("exported %d events, want 200", len(events))
	}
	prev := int64(-1 << 62)
	for _, e := range events {
		if e["ph"] != "X" || e["name"] != "work" || e["cat"] != "cell" {
			t.Fatalf("malformed event: %v", e)
		}
		ts := int64(e["ts"].(float64))
		if ts < prev {
			t.Fatal("events not sorted by start time")
		}
		prev = ts
	}
}

func TestTimelineStableSort(t *testing.T) {
	// Same start instant, different tids/names: event order must be
	// pinned by the (start, tid, name) sort regardless of recording
	// order. (ts values embed each timeline's creation instant, so the
	// comparison is on the ordered name/tid sequence, not raw bytes.)
	base := time.Now()
	render := func(order []int) []string {
		tl := NewTimeline()
		spans := []Span{
			{Name: "b", TID: 1}, {Name: "a", TID: 1}, {Name: "a", TID: 0},
		}
		for _, i := range order {
			s := spans[i]
			tl.Record(s.Name, "c", s.TID, base, time.Millisecond)
		}
		var buf bytes.Buffer
		if err := tl.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(events))
		for i, e := range events {
			keys[i] = fmt.Sprintf("%v/%v", e["tid"], e["name"])
		}
		return keys
	}
	a, b := render([]int{0, 1, 2}), render([]int{2, 1, 0})
	want := []string{"0/a", "1/a", "1/b"}
	if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
		t.Fatalf("event order depends on recording order: %v vs %v (want %v)", a, b, want)
	}
}
