package tmplar

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/trace"
)

func TestReadyz(t *testing.T) {
	base := server(t)

	// No grids registered: alive but not ready.
	empty := &Server{models: base.models, opts: Options{}.withDefaults()}
	empty.cat = catalog.New(catalog.Options{
		LoadModel: base.models.resolve, Metrics: empty.opts.Metrics,
	})
	rec := do(t, empty.Handler(), "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty server readyz = %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "not ready") {
		t.Errorf("body = %s, want a not-ready status", rec.Body.String())
	}
	// Liveness stays green the whole time — that is the point of the split.
	if live := do(t, empty.Handler(), "GET", "/healthz", nil); live.Code != http.StatusOK {
		t.Errorf("healthz on a not-ready server = %d, want 200", live.Code)
	}

	// Missing model: still not ready even with a grid.
	g, ok := base.lookupGrid("ops-area")
	if !ok {
		t.Fatal("ops-area missing from shared server")
	}
	mc := &modelCache{bySel: make(map[string]*catalog.ModelArtifact)}
	noModel := &Server{models: mc, opts: Options{}.withDefaults()}
	noModel.cat = catalog.New(catalog.Options{
		LoadModel: mc.resolve, Metrics: noModel.opts.Metrics,
	})
	noModel.InstallGrid(g)
	if rec := do(t, noModel.Handler(), "GET", "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("model-less readyz = %d, want 503", rec.Code)
	}

	// The fully-loaded shared server is ready.
	rec = do(t, base.Handler(), "GET", "/readyz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("loaded server readyz = %d (%s)", rec.Code, rec.Body.String())
	}
	var body struct {
		Status      string `json:"status"`
		Grids       int    `json:"grids"`
		ModelLoaded bool   `json:"model_loaded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ready" || body.Grids < 1 || !body.ModelLoaded {
		t.Errorf("readyz body = %+v", body)
	}
}

func TestVersionEndpoint(t *testing.T) {
	rec := do(t, server(t).Handler(), "GET", "/version", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("version = %d", rec.Code)
	}
	var bi BuildInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &bi); err != nil {
		t.Fatal(err)
	}
	if bi.GoVersion == "" {
		t.Error("GoVersion empty")
	}
	// Unstamped fields degrade to "unknown", never to empty strings.
	if bi.Version == "" || bi.Revision == "" || bi.BuildTime == "" {
		t.Errorf("unstamped fields empty: %+v", bi)
	}
}

func TestIncomingTraceIDHonored(t *testing.T) {
	h := server(t).Handler()

	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Trace-Id", "00000000000000ff")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Trace-Id"); got != "00000000000000ff" {
		t.Errorf("response trace ID = %q, want the incoming %q echoed", got, "00000000000000ff")
	}

	// The honored ID reaches /debug/traces, so a caller can look up its own
	// request by the ID it chose.
	tr := do(t, h, "GET", "/debug/traces", nil)
	var spans []*trace.Span
	if err := json.Unmarshal(tr.Body.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range spans {
		if s.TraceID == trace.TraceID(0xff) && s.Name == "request" {
			found = true
		}
	}
	if !found {
		t.Error("honored trace ID not found in /debug/traces")
	}
}

func TestMalformedTraceIDMintsFresh(t *testing.T) {
	h := server(t).Handler()
	for _, bad := range []string{"not-hex!", "zzzz", "0000000000000000", strings.Repeat("f", 64)} {
		req := httptest.NewRequest("GET", "/healthz", nil)
		req.Header.Set("X-Trace-Id", bad)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("header %q broke the request: %d", bad, rec.Code)
		}
		got := rec.Header().Get("X-Trace-Id")
		if got == "" || got == bad {
			t.Errorf("header %q: response trace ID = %q, want a fresh minted ID", bad, got)
		}
		if id, err := trace.ParseTraceID(got); err != nil || id == 0 {
			t.Errorf("header %q: fresh ID %q does not parse to non-zero: %v", bad, got, err)
		}
	}
}

func TestDashMounted(t *testing.T) {
	rec := do(t, server(t).Handler(), "GET", "/debug/dash", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("dash = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "/debug/metrics/stream") {
		t.Error("dashboard does not point at the mounted stream path")
	}
}

func TestStreamMounted(t *testing.T) {
	s := server(t)
	s.Sampler().Tick() // guarantee at least one backlog frame

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/debug/metrics/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			break
		}
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if event != "sample" {
		t.Errorf("event = %q, want sample", event)
	}
	var sm struct {
		Seq    uint64             `json:"seq"`
		Series map[string]float64 `json:"series"`
	}
	if err := json.Unmarshal([]byte(data), &sm); err != nil {
		t.Fatalf("frame data not JSON: %v", err)
	}
	if sm.Seq == 0 || len(sm.Series) == 0 {
		t.Errorf("frame = %+v, want a populated sample", sm)
	}
	// The runtime collector runs on every tick, so Go runtime gauges are in
	// the series set.
	if sm.Series["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", sm.Series["go_goroutines"])
	}
}

func TestSpanRateCounter(t *testing.T) {
	s := server(t)
	before := s.Metrics().CounterValue("trace_spans_total", "span", "request")
	if rec := do(t, s.Handler(), "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	after := s.Metrics().CounterValue("trace_spans_total", "span", "request")
	if after != before+1 {
		t.Errorf("trace_spans_total{span=request} = %d -> %d, want +1", before, after)
	}
}
