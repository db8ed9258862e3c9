package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/progs"
)

// parseExposition indexes a Prometheus text exposition by full series name
// (with labels), dropping comment lines.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsFamiliesMoveWithTraffic drives one miss, one fingerprint hit
// (a reformatted resubmission), one parse failure, and one source-index
// hit (an exact resubmission) through a Service and checks the
// exposition: counters moved, every error code has a series (zeros
// included), and the phase histograms obey the le-form invariants.
func TestMetricsFamiliesMoveWithTraffic(t *testing.T) {
	svc := New(Options{Sessions: 2})
	if resp := svc.Analyze(context.Background(), treeAddReq()); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp := svc.Analyze(context.Background(), reformattedTreeAddReq()); resp.Err != nil || !resp.Cached {
		t.Fatalf("second request: err=%+v cached=%v, want hit", resp.Err, resp.Cached)
	}
	if resp := svc.Analyze(context.Background(), Request{Name: "bad", Source: "program broken\nprocedure main()\nbegin\n  x :=\nend;"}); resp.Err == nil {
		t.Fatal("broken program must fail")
	}
	// Exact resubmission: served by the source index, so neither the parse
	// nor the fingerprint histogram moves.
	if resp := svc.Analyze(context.Background(), reformattedTreeAddReq()); resp.Err != nil || !resp.Cached {
		t.Fatalf("exact resubmission: err=%+v cached=%v, want hit", resp.Err, resp.Cached)
	}

	var buf bytes.Buffer
	svc.WriteMetrics(&buf)
	series := parseExposition(t, buf.String())

	want := map[string]float64{
		`sil_requests_total{shard="0"}`:          4,
		`sil_analyses_total{shard="0"}`:          1,
		`sil_request_failures_total{shard="0"}`:  1,
		`sil_cache_hits_total{shard="0"}`:        2,
		`sil_cache_source_hits_total{shard="0"}`: 1,
		`sil_cache_misses_total{shard="0"}`:      1,
		`sil_cache_entries{shard="0"}`:           1,
		`sil_sessions{shard="0"}`:                2,
		`sil_sessions_busy{shard="0"}`:           0,
		`sil_queue_depth{shard="0"}`:             0,
	}
	for name, v := range want {
		if got, ok := series[name]; !ok || got != v {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, v)
		}
	}

	// The full error-code vocabulary is always exposed, zeros included, so
	// dashboards never see series appear out of nowhere.
	codes := sortedCodes()
	if len(codes) != len(errorCodes) || !sort.StringsAreSorted(codes) {
		t.Fatalf("sortedCodes() = %v, want the sorted %d-code vocabulary", codes, len(errorCodes))
	}
	for _, code := range codes {
		name := fmt.Sprintf(`sil_request_errors_total{shard="0",code=%q}`, code)
		wantV := 0.0
		if code == CodeParseError {
			wantV = 1
		}
		if got, ok := series[name]; !ok || got != wantV {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, wantV)
		}
	}

	// Histogram invariants per phase: cumulative buckets nondecreasing,
	// +Inf bucket == _count, and the observation counts match the traffic
	// (3 prepares parsed, 2 fingerprinted, 1 analyzed and rendered; the
	// source-index hit did none of these).
	wantCounts := map[string]float64{"parse": 3, "fingerprint": 2, "fixpoint": 1, "render": 1}
	for _, phase := range phaseNames {
		prev := -1.0
		for _, ub := range phaseBuckets {
			name := fmt.Sprintf(`sil_phase_seconds_bucket{shard="0",phase=%q,le=%q}`, phase, fmtFloat(ub))
			v, ok := series[name]
			if !ok {
				t.Fatalf("missing bucket series %s", name)
			}
			if v < prev {
				t.Errorf("%s: cumulative bucket decreased (%v after %v)", name, v, prev)
			}
			prev = v
		}
		inf := series[fmt.Sprintf(`sil_phase_seconds_bucket{shard="0",phase=%q,le="+Inf"}`, phase)]
		count := series[fmt.Sprintf(`sil_phase_seconds_count{shard="0",phase=%q}`, phase)]
		if inf != count {
			t.Errorf("phase %s: +Inf bucket %v != count %v", phase, inf, count)
		}
		if count != wantCounts[phase] {
			t.Errorf("phase %s: count %v, want %v", phase, count, wantCounts[phase])
		}
		if count > 0 && series[fmt.Sprintf(`sil_phase_seconds_sum{shard="0",phase=%q}`, phase)] < 0 {
			t.Errorf("phase %s: negative latency sum", phase)
		}
	}
}

// TestMetricsShardSeries: a Router exposition carries one series per shard
// under uniform labels, and the per-shard request counters sum to the
// total traffic.
func TestMetricsShardSeries(t *testing.T) {
	r := NewRouter(2, Options{Sessions: 1})
	for _, e := range progs.Catalog {
		if resp := r.Analyze(context.Background(), Request{Name: e.Name, Source: e.Source, Roots: e.Roots}); resp.Err != nil {
			t.Fatalf("%s: %+v", e.Name, resp.Err)
		}
	}
	var buf bytes.Buffer
	r.WriteMetrics(&buf)
	series := parseExposition(t, buf.String())
	s0, ok0 := series[`sil_requests_total{shard="0"}`]
	s1, ok1 := series[`sil_requests_total{shard="1"}`]
	if !ok0 || !ok1 {
		t.Fatalf("missing per-shard request series (shard0=%v shard1=%v)", ok0, ok1)
	}
	if int(s0+s1) != len(progs.Catalog) {
		t.Errorf("per-shard requests sum to %v, want %d", s0+s1, len(progs.Catalog))
	}
	if _, ok := series[`sil_sessions{shard="1"}`]; !ok {
		t.Error("shard 1 must expose its gauge families too")
	}
}

// TestHTTPMetricsEndpoint: /v1/metrics serves the exposition with the
// 0.0.4 content type, and the legacy /metrics alias is byte-identical.
func TestHTTPMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	body, _ := json.Marshal(treeAddReq())
	if resp, data := post(t, srv, string(body)); resp.StatusCode != 200 {
		t.Fatalf("warmup POST: %d %s", resp.StatusCode, data)
	}
	resp, v1 := get(t, srv, "/v1/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	if !strings.Contains(string(v1), "# TYPE sil_phase_seconds histogram") {
		t.Error("exposition must declare the phase histogram family")
	}
	series := parseExposition(t, string(v1))
	if series[`sil_cache_misses_total{shard="0"}`] != 1 {
		t.Errorf("one warmup miss must be visible over HTTP: %v", series[`sil_cache_misses_total{shard="0"}`])
	}
	if resp, legacy := get(t, srv, "/metrics"); resp.StatusCode != 200 || !bytes.Equal(v1, legacy) {
		t.Errorf("legacy /metrics alias must serve identical bytes (status %d)", resp.StatusCode)
	}
}

// TestHTTPV1AnalyzeAlias: /v1/analyze and /analyze serve byte-identical
// result documents for the same program.
func TestHTTPV1AnalyzeAlias(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	body, _ := json.Marshal(treeAddReq())
	legacy, legacyBody := post(t, srv, string(body))
	if legacy.StatusCode != 200 {
		t.Fatalf("/analyze: %d %s", legacy.StatusCode, legacyBody)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v1Body bytes.Buffer
	if _, err := v1Body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/analyze: %d %s", resp.StatusCode, v1Body.String())
	}
	if !bytes.Equal(legacyBody, v1Body.Bytes()) {
		t.Error("/v1/analyze body differs from /analyze body")
	}
}
