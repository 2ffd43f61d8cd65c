package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
)

// testPlane builds a 2-shard fleet over memnet with one device and a
// few probing CPs, wrapped in a Server — the whole scrape surface, no
// kernel sockets.
func testPlane(t *testing.T) (*Server, *fleet.Fleet) {
	t.Helper()
	net := memnet.New(memnet.Faults{})
	t.Cleanup(func() { net.Close() })
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })

	devFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { devFleet.Close() })
	if err := devFleet.Start(); err != nil {
		t.Fatal(err)
	}
	dev, err := devFleet.AddDevice(1, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(1, env)
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := fleet.New(fleet.Config{Shards: 2, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		policy, err := naive.NewPolicy(20 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddControlPoint(fleet.CPConfig{
			ID: ident.NodeID(100 + i), Device: 1, DeviceAddrPort: dev.Addr(),
			Policy: policy,
			Retransmit: core.RetransmitConfig{
				FirstTimeout: time.Second, RetryTimeout: time.Second,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Let a few probe cycles complete so every scraped series is live.
	deadline := time.Now().Add(5 * time.Second)
	for f.Snapshot().Total.RepliesIn < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("no probe traffic: %+v", f.Snapshot().Total)
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv, err := New(Config{Fleet: f, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	return srv, f
}

func get(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String(), rec.Result().Header
}

func TestNewRequiresFleet(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil fleet accepted")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testPlane(t)
	code, body, hdr := get(t, srv.Handler(), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	for _, want := range []string{
		"# TYPE fleet_probe_rtt_seconds histogram",
		"# TYPE fleet_detection_latency_seconds histogram",
		"# TYPE fleet_replies_in_total counter",
		"fleet_probe_rtt_seconds_bucket{le=\"+Inf\"}",
		"# TYPE memnet_filtered_total counter",
		"# TYPE memnet_injected_total counter",
		"# TYPE memnet_dropped_down_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Live series must be nonzero: traffic ran before the scrape.
	for _, family := range []string{"fleet_replies_in_total", "fleet_probes_out_total",
		"fleet_probe_rtt_seconds_count", "memnet_delivered_total"} {
		var v float64
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, family+" ") {
				fmt.Sscanf(line[len(family)+1:], "%g", &v)
			}
		}
		if v == 0 {
			t.Errorf("series %s is zero after live traffic", family)
		}
	}
}

func TestHealthzAndStatusz(t *testing.T) {
	srv, f := testPlane(t)
	if code, body, _ := get(t, srv.Handler(), "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body, _ := get(t, srv.Handler(), "/statusz")
	if code != 200 {
		t.Fatalf("/statusz status %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, body)
	}
	if st.Shards != f.Shards() || len(st.PerShard) != f.Shards() {
		t.Errorf("statusz shards %d/%d, fleet has %d", st.Shards, len(st.PerShard), f.Shards())
	}
	if !st.Telemetry || !st.FlightRecorder {
		t.Error("statusz should report telemetry planes on by default")
	}
	if st.Total.RepliesIn == 0 || st.Histograms.ProbeRTT.Count == 0 {
		t.Errorf("statusz totals empty: replies=%d rtt=%d", st.Total.RepliesIn, st.Histograms.ProbeRTT.Count)
	}
	if st.Net == nil || st.Net.Delivered == 0 {
		t.Errorf("statusz missing memnet counters: %+v", st.Net)
	}
	var perShard uint64
	for _, sh := range st.PerShard {
		perShard += sh.Counters.RepliesIn
	}
	if perShard != st.Total.RepliesIn {
		t.Errorf("per-shard replies sum %d != total %d", perShard, st.Total.RepliesIn)
	}
}

func TestFlightAndPprofEndpoints(t *testing.T) {
	srv, _ := testPlane(t)
	code, body, _ := get(t, srv.Handler(), "/debug/flight")
	if code != 200 {
		t.Fatalf("/debug/flight status %d", code)
	}
	if !strings.Contains(body, "probe-sent") || !strings.Contains(body, "reply-matched") {
		t.Errorf("flight dump missing lifecycle events:\n%.200s", body)
	}
	if code, body, _ := get(t, srv.Handler(), "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _, _ := get(t, srv.Handler(), "/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestStartShutdown(t *testing.T) {
	srv, _ := testPlane(t)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "fleet_probes_out_total") {
		t.Fatalf("live scrape failed: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr.String() + "/healthz"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

// TestScrapeNeverBlocksShards hammers /metrics while traffic runs —
// the scrape contract (counters copied under each shard's mutex,
// histograms from atomics) under the race detector: scrapes finish and
// the loops keep running. fleet's TestSnapshotHammer puts a number on
// how long one Snapshot can wait.
func TestScrapeNeverBlocksShards(t *testing.T) {
	srv, _ := testPlane(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := srv.WriteMetrics(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scrapes did not complete")
	}
}
