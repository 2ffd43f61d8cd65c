package fleet

// Telemetry: per-shard latency histograms and the flight recorder.
//
// The flat Counters answer "how much"; the histograms answer "how
// fast" — the paper's headline figures are latency distributions, and
// a mean over a 100k-CP fleet hides exactly the tail a production
// operator cares about. Each shard owns one private set of
// cache-line-padded log₂ histograms (internal/metrics): the event loop
// records into them with uncontended atomic adds under its own mutex's
// protection, scrapers snapshot them with atomic loads and merge across
// shards without taking any shard mutex (the flat Counters are the part
// of a scrape that does: Fleet.Snapshot holds each shard's mutex for
// one copy). Recording allocates nothing — the 0 allocs/op hot-path
// gate runs with telemetry on.
//
// The flight recorder (internal/trace.Ring) keeps the newest N
// probe-lifecycle events per shard: probe sent, reply matched, attempt
// expired, verdict, handoff. It is written only under the shard mutex
// on paths the loop already serialises, and dumped by briefly taking
// each shard mutex in turn — the post-mortem "what led up to this
// verdict" view that counters and histograms cannot reconstruct.

import (
	"io"
	"time"

	"presence/internal/metrics"
	"presence/internal/trace"
)

// defaultFlightEvents is the per-shard flight-recorder capacity: deep
// enough to hold the full lifecycle
// of hundreds of probe cycles, small enough (~4096 × 32 B) to be noise
// next to the demux tables.
const defaultFlightEvents = 4096

// shardHists is one shard's histogram set. Durations are recorded in
// microseconds (see internal/metrics for the bucket layout); fill is
// unit-free datagram counts.
type shardHists struct {
	// rtt: probe send → matching reply accepted.
	rtt metrics.Histogram
	// detect: first probe of the verdict cycle → DeviceLost verdict; the
	// prober-observable detection latency (the paper's figure adds the
	// probe period before the failing cycle, which no receiver can see).
	detect metrics.Histogram
	// handoff: frame queued on another shard's inbox → drained by its
	// owner (ReusePort routing only).
	handoff metrics.Histogram
	// fill: datagrams per ReadBatch burst — how full the syscall
	// amortisation actually runs.
	fill metrics.Histogram
	// cascade: duration of one timer-cascade (Advance + firing every due
	// alarm), the event loop's largest indivisible unit of work.
	cascade metrics.Histogram
}

// us converts a duration to whole microseconds for histogram recording,
// clamping negatives to zero: a handoff starts on one shard's clock and
// ends on another's, and the two tick independently.
func us(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}

// Histograms is the fleet's histogram snapshot: plain mergeable values,
// JSON-ready for /statusz, renderable by the exposition writer.
type Histograms struct {
	ProbeRTT         metrics.HistogramSnapshot `json:"probe_rtt_us"`
	DetectionLatency metrics.HistogramSnapshot `json:"detection_latency_us"`
	HandoffLatency   metrics.HistogramSnapshot `json:"handoff_latency_us"`
	BatchFill        metrics.HistogramSnapshot `json:"batch_fill_datagrams"`
	CascadeDuration  metrics.HistogramSnapshot `json:"timer_cascade_us"`
}

// Merge adds o into h element-wise.
func (h *Histograms) Merge(o Histograms) {
	h.ProbeRTT.Merge(o.ProbeRTT)
	h.DetectionLatency.Merge(o.DetectionLatency)
	h.HandoffLatency.Merge(o.HandoffLatency)
	h.BatchFill.Merge(o.BatchFill)
	h.CascadeDuration.Merge(o.CascadeDuration)
}

// TelemetryEnabled reports whether the latency histograms are being
// recorded: always, except in the hot-path harness's baseline.
func (f *Fleet) TelemetryEnabled() bool { return f.shards[0].hist != nil }

// FlightRecorderEnabled reports whether probe-lifecycle events are
// being recorded: always, except in the hot-path harness's baseline.
func (f *Fleet) FlightRecorderEnabled() bool { return f.shards[0].rec != nil }

// Histograms returns the merged cross-shard histogram snapshot. It
// takes no shard mutex — histogram cells are atomics — so it never
// stalls an event loop; zero-valued when telemetry is disabled.
func (f *Fleet) Histograms() Histograms {
	var out Histograms
	for _, s := range f.shards {
		out.Merge(s.histSnapshot())
	}
	return out
}

// ShardHistograms returns one histogram snapshot per shard, indexed by
// shard. Zero-valued snapshots when telemetry is disabled.
func (f *Fleet) ShardHistograms() []Histograms {
	out := make([]Histograms, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.histSnapshot()
	}
	return out
}

func (s *shard) histSnapshot() Histograms {
	h := s.hist
	if h == nil {
		return Histograms{}
	}
	return Histograms{
		ProbeRTT:         h.rtt.Snapshot(),
		DetectionLatency: h.detect.Snapshot(),
		HandoffLatency:   h.handoff.Snapshot(),
		BatchFill:        h.fill.Snapshot(),
		CascadeDuration:  h.cascade.Snapshot(),
	}
}

// FlightSnapshot copies every shard's retained flight-recorder events,
// indexed by shard, oldest-first within each. It takes each shard mutex
// briefly (shards are snapshotted one after another, so the view is
// per-shard consistent, not global). Empty slices when the recorder is
// disabled.
func (f *Fleet) FlightSnapshot() [][]trace.Event {
	out := make([][]trace.Event, len(f.shards))
	for i, s := range f.shards {
		s.mu.Lock()
		if s.rec != nil {
			out[i] = s.rec.Snapshot()
		}
		s.mu.Unlock()
	}
	return out
}

// WriteFlight dumps every shard's flight-recorder events human-readably
// (the /debug/flight and SIGQUIT format).
func (f *Fleet) WriteFlight(w io.Writer) error {
	for i, events := range f.FlightSnapshot() {
		if err := trace.WriteFlight(w, i, events); err != nil {
			return err
		}
	}
	return nil
}
