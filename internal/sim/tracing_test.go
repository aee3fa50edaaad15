package sim

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/routeplanning/mamorl/internal/trace"
)

// greedyToward walks each asset toward the destination along the line grid —
// a deterministic planner with actual movement to trace.
type greedyToward struct{ dest int }

func (p *greedyToward) Name() string { return "greedy" }
func (p *greedyToward) Decide(m *Mission, i int) Action {
	cur := int(m.Cur(i))
	if cur == p.dest {
		return Wait
	}
	var want int
	if cur < p.dest {
		want = cur + 1
	} else {
		want = cur - 1
	}
	for n, e := range m.Grid().Neighbors(m.Cur(i)) {
		if int(e.To) == want {
			return Action{Neighbor: n, Speed: 1}
		}
	}
	return Wait
}

func TestMissionSpanAndReplay(t *testing.T) {
	sc := toyScenario(t)
	p := func() Planner { return &greedyToward{dest: int(sc.Dest)} }

	// Reference run, untraced.
	want, err := Run(sc, p(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Traced run: tracing must not change the result.
	ring := trace.NewRing(16)
	var buf bytes.Buffer
	jw := trace.NewJSONLWriter(&buf)
	tr := trace.New(ring, jw)
	got, err := Run(sc, p(), RunOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced run diverged: %+v vs %+v", got, want)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	spans := ring.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("ring holds %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "mission" {
		t.Fatalf("span name %q", sp.Name)
	}
	if a, ok := trace.GetAttr(sp.Attrs, "planner"); !ok || a.Str() != "greedy" {
		t.Fatalf("planner attr %v %v", a, ok)
	}
	if a, ok := trace.GetAttr(sp.Attrs, "found"); !ok || a.BoolVal() != want.Found {
		t.Fatalf("found attr %v %v, want %v", a, ok, want.Found)
	}
	if a, ok := trace.GetAttr(sp.Attrs, "steps"); !ok || a.IntVal() != int64(want.Steps) {
		t.Fatalf("steps attr %v, want %d", a.IntVal(), want.Steps)
	}
	steps := sp.EventsNamed("step")
	if len(steps) != want.Steps {
		t.Fatalf("%d step events, want %d", len(steps), want.Steps)
	}
	for i, ev := range steps {
		if _, ok := ev.Attr("dur_us"); !ok {
			t.Fatalf("step event %d has no dur_us attribute", i)
		}
	}
	if want.Found && len(sp.EventsNamed("found")) != 1 {
		t.Fatalf("found events: %d", len(sp.EventsNamed("found")))
	}
	// CommEvery=3 with two assets: at least one communicate event fires
	// before discovery (discovery itself also broadcasts).
	if len(sp.EventsNamed("communicate")) == 0 {
		t.Fatal("no communicate events")
	}

	// Replay directly from the live span.
	acts, err := ActionsFromSpan(sp)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(sc, acts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replay diverged: %+v vs %+v", replayed, want)
	}

	// Replay from the JSONL file: full round trip through the wire format.
	fromFile, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile) != 1 {
		t.Fatalf("file holds %d spans", len(fromFile))
	}
	acts2, err := ActionsFromSpan(fromFile[0])
	if err != nil {
		t.Fatal(err)
	}
	replayed2, err := Replay(sc, acts2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed2, want) {
		t.Fatalf("file replay diverged: %+v vs %+v", replayed2, want)
	}
}

func TestParseAction(t *testing.T) {
	for _, a := range []Action{Wait, {Neighbor: 0, Speed: 1}, {Neighbor: 3, Speed: 2}} {
		got, err := ParseAction(a.String())
		if err != nil {
			t.Fatalf("ParseAction(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("ParseAction(%q) = %v", a.String(), got)
		}
	}
	for _, bad := range []string{"", "n1", "n@s1", "n1@s0", "n-1@s1", "x1@s1", "n1@sx"} {
		if _, err := ParseAction(bad); err == nil {
			t.Errorf("ParseAction(%q) accepted", bad)
		}
	}
}

func TestStepZeroDiscoveryEvent(t *testing.T) {
	// Destination inside the initial sensing radius: discovery happens in
	// NewMission, before the span attaches; RunContext must compensate.
	sc := toyScenario(t)
	sc.Dest = 1 // asset 0 at node 0, radius 1.5 — sensed immediately
	ring := trace.NewRing(16)
	res, err := Run(sc, &greedyToward{dest: 1}, RunOptions{Tracer: trace.New(ring)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Steps != 0 {
		t.Fatalf("expected step-0 discovery, got %+v", res)
	}
	spans := ring.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	found := spans[0].EventsNamed("found")
	if len(found) != 1 {
		t.Fatalf("found events: %d", len(found))
	}
	if a, ok := found[0].Attr("step"); !ok || a.IntVal() != 0 {
		t.Fatalf("found step attr: %v %v", a, ok)
	}
}
