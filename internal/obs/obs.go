// Package obs is the fleet's status plane: one HTTP mux serving
// Prometheus /metrics, /healthz, /statusz (per-shard JSON snapshot),
// /debug/flight (the flight-recorder dump) and the pprof handlers —
// everything a production operator scrapes, on one dedicated server
// with a graceful shutdown, stdlib only. With Config.Admin it also
// mounts the runtime-administration endpoints (live control-point and
// device churn, shard drain/rebalance, config pushes — see admin.go).
//
// The package sits above both internal/fleet and internal/memnet
// (which imports fleet and so cannot be imported by it): a scrape of
// an adversarial harness run surfaces the middlebox counters —
// filtered, injected, dropped-while-down datagrams — through the same
// path as the benign fleet counters, so attack observability needs no
// second pipeline.
//
// Scrapes are cheap: Fleet.Snapshot runs one struct copy on each
// shard's loop, so a counter scrape waits at most for the work that
// loop is in, and histograms are padded atomics read without waiting on
// any loop. /debug/flight keeps each loop a little longer, to copy the
// event rings.
//
// # Metric catalogue
//
// Counters and gauges (fleet totals, summed across shards at scrape
// time): one family per row of fleet.CounterDefs, which holds every
// name and help text — see internal/fleet/counters.go — plus the
// gauges fleet_uptime_seconds and fleet_shards.
//
// Histograms (log₂ buckets, see internal/metrics):
// fleet_probe_rtt_seconds, fleet_detection_latency_seconds,
// fleet_handoff_latency_seconds, fleet_timer_cascade_seconds,
// fleet_recv_batch_fill_datagrams.
//
// With a memnet attached: memnet_sent_total, memnet_delivered_total,
// memnet_lost_total, memnet_duplicated_total,
// memnet_dropped_down_total, memnet_overflowed_total,
// memnet_injected_total, memnet_filtered_total.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"presence/internal/fleet"
	"presence/internal/memnet"
	"presence/internal/metrics"
)

// Config assembles a Server.
type Config struct {
	// Fleet is the scraped fleet. Required.
	Fleet *fleet.Fleet
	// Net, when non-nil, adds the memnet datagram counters — including
	// the middlebox verdicts adversarial runs are scored on — to every
	// scrape. Nil for fleets on kernel sockets.
	Net *memnet.Network
	// Admin mounts the runtime-administration endpoints (/admin/cp/add,
	// /admin/cp/remove, /admin/device/add, /admin/device/remove,
	// /admin/drain, /admin/rebalance, /admin/config — see admin.go). Off
	// by default: the status plane is read-only unless explicitly armed.
	Admin bool
}

// Server is the status plane. Construct with New, expose with Start
// (or mount Handler under test), stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux
	srv *http.Server
}

// New validates the config and builds the mux with every handler
// registered explicitly — including pprof's, which elsewhere ride the
// package-level http.DefaultServeMux via a blank import and then leak
// onto any server that uses the default mux.
func New(cfg Config) (*Server, error) {
	if cfg.Fleet == nil {
		return nil, errors.New("obs: Config.Fleet is required")
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/debug/flight", s.handleFlight)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if cfg.Admin {
		s.registerAdmin()
	}
	return s, nil
}

// Handler returns the status mux, for mounting in tests or embedding
// into a larger server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr and serves in the background, returning the bound
// address (addr may leave the port to the kernel). Call Shutdown to
// stop.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Shutdown/Close
	return ln.Addr(), nil
}

// Shutdown gracefully stops the server started by Start (no-op
// otherwise): in-flight scrapes finish, the listener closes.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck // best-effort response body
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w) //nolint:errcheck // client gone mid-scrape; nothing to do
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.WriteStatus(w) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.cfg.Fleet.WriteFlight(w) //nolint:errcheck // client gone; nothing to do
}

// one wraps a label-less value as the single sample of a family.
func one(v uint64) metrics.Sample { return metrics.Sample{Value: float64(v)} }

// usec is the unit for histograms recorded in microseconds and exposed
// in seconds.
const usec = 1e-6

// WriteMetrics renders the full Prometheus exposition for one scrape.
func (s *Server) WriteMetrics(out io.Writer) error {
	f := s.cfg.Fleet
	snap := f.Snapshot()
	t := &snap.Total
	w := metrics.NewWriter(out)

	for _, d := range fleet.CounterDefs {
		if d.Count != nil {
			w.Counter(d.Name, d.Help, one(*d.Count(t)))
		}
	}
	w.Gauge("fleet_uptime_seconds", "Fleet uptime.", metrics.Sample{Value: snap.At.Seconds()})
	w.Gauge("fleet_shards", "Number of shards.", metrics.Sample{Value: float64(f.Shards())})
	for _, d := range fleet.CounterDefs {
		if d.Level != nil {
			w.Gauge(d.Name, d.Help, one(uint64(*d.Level(t))))
		}
	}

	h := f.Histograms()
	w.Histogram("fleet_probe_rtt_seconds",
		"Probe round-trip time, first attempt to accepted reply.", usec,
		metrics.HistogramSample{Snap: h.ProbeRTT})
	w.Histogram("fleet_detection_latency_seconds",
		"First probe of the failing cycle to the lost verdict.", usec,
		metrics.HistogramSample{Snap: h.DetectionLatency})
	w.Histogram("fleet_handoff_latency_seconds",
		"Cross-shard handoff enqueue to drain.", usec,
		metrics.HistogramSample{Snap: h.HandoffLatency})
	w.Histogram("fleet_timer_cascade_seconds",
		"Duration of one timer cascade (advance plus alarms fired).", usec,
		metrics.HistogramSample{Snap: h.CascadeDuration})
	w.Histogram("fleet_recv_batch_fill_datagrams",
		"Datagrams per transport read batch.", 1,
		metrics.HistogramSample{Snap: h.BatchFill})

	if s.cfg.Net != nil {
		c := s.cfg.Net.Counters()
		w.Counter("memnet_sent_total", "Datagrams accepted from endpoints.", one(c.Sent))
		w.Counter("memnet_delivered_total", "Datagrams delivered to endpoints.", one(c.Delivered))
		w.Counter("memnet_lost_total", "Datagrams dropped by the link loss model.", one(c.Lost))
		w.Counter("memnet_duplicated_total", "Duplicate copies injected by the fault plan.", one(c.Duplicated))
		w.Counter("memnet_dropped_down_total", "Datagrams dropped at a down or unknown endpoint.", one(c.Dropped))
		w.Counter("memnet_overflowed_total", "Datagrams dropped at a full inbox.", one(c.Overflowed))
		w.Counter("memnet_injected_total", "Datagrams originated by middleboxes (attack traffic).", one(c.Injected))
		w.Counter("memnet_filtered_total", "Datagrams dropped by middleboxes.", one(c.Filtered))
	}
	return w.Err()
}

// ShardStatus is one shard's slice of the /statusz report.
type ShardStatus struct {
	Index      int              `json:"index"`
	Draining   bool             `json:"draining,omitempty"`
	Counters   fleet.Counters   `json:"counters"`
	Histograms fleet.Histograms `json:"histograms"`
}

// Status is the /statusz document: the same numbers as /metrics, plus
// the per-shard breakdown the flat exposition intentionally omits.
type Status struct {
	UptimeSeconds  float64          `json:"uptime_seconds"`
	Shards         int              `json:"shards"`
	ReusePort      bool             `json:"reuseport_active"`
	Routed         bool             `json:"routed"`
	Telemetry      bool             `json:"telemetry"`
	FlightRecorder bool             `json:"flight_recorder"`
	AuthEnabled    bool             `json:"auth_enabled"`
	ConfigVersion  uint64           `json:"config_version"`
	Total          fleet.Counters   `json:"total"`
	Histograms     fleet.Histograms `json:"histograms"`
	PerShard       []ShardStatus    `json:"per_shard"`
	Net            *memnet.Counters `json:"net,omitempty"`
}

// StatusSnapshot gathers the /statusz document.
func (s *Server) StatusSnapshot() Status {
	f := s.cfg.Fleet
	snap := f.Snapshot()
	hists := f.ShardHistograms()
	rc, ver := f.ConfigSnapshot()
	draining := f.Draining()
	st := Status{
		UptimeSeconds:  snap.At.Seconds(),
		Shards:         f.Shards(),
		ReusePort:      f.ReusePortActive(),
		Routed:         f.Routed(),
		Telemetry:      f.TelemetryEnabled(),
		FlightRecorder: f.FlightRecorderEnabled(),
		AuthEnabled:    len(rc.AuthKey) > 0,
		ConfigVersion:  ver,
		Total:          snap.Total,
		Histograms:     f.Histograms(),
		PerShard:       make([]ShardStatus, len(snap.Shards)),
	}
	for i := range snap.Shards {
		st.PerShard[i] = ShardStatus{Index: i, Draining: draining[i], Counters: snap.Shards[i], Histograms: hists[i]}
	}
	if s.cfg.Net != nil {
		c := s.cfg.Net.Counters()
		st.Net = &c
	}
	return st
}

// WriteStatus renders the /statusz JSON.
func (s *Server) WriteStatus(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.StatusSnapshot())
}
