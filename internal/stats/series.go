package stats

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// TimeSeries records (time, value) samples for transient analysis — the
// per-CP probe-frequency traces of Figs. 2–4 and the load trace of
// Fig. 5. An optional window restricts recording, and an optional
// decimation stride bounds memory on long runs.
type TimeSeries struct {
	name    string
	points  []Point
	from    time.Duration
	to      time.Duration
	bounded bool
	stride  int
	skip    int
}

// NewTimeSeries returns an empty series with the given name (used as the
// data-file column header).
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{name: name}
}

// Window restricts recording to samples with from <= t < to, matching the
// zoomed figures (Fig. 3 records 12300 s–12360 s only). Returns the series
// for chaining.
func (s *TimeSeries) Window(from, to time.Duration) *TimeSeries {
	s.from, s.to, s.bounded = from, to, true
	return s
}

// Decimate keeps only every n-th accepted sample (n >= 1). Returns the
// series for chaining.
func (s *TimeSeries) Decimate(n int) *TimeSeries {
	if n < 1 {
		n = 1
	}
	s.stride = n
	return s
}

// Name returns the series name.
func (s *TimeSeries) Name() string { return s.name }

// Rename changes the series name (used when one report collects
// same-named series from several worlds). Returns the series for
// chaining.
func (s *TimeSeries) Rename(name string) *TimeSeries {
	s.name = name
	return s
}

// Add records a sample, subject to the window and decimation filters.
func (s *TimeSeries) Add(t time.Duration, v float64) {
	if s.bounded && (t < s.from || t >= s.to) {
		return
	}
	if s.stride > 1 {
		if s.skip > 0 {
			s.skip--
			return
		}
		s.skip = s.stride - 1
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the number of recorded samples.
func (s *TimeSeries) Len() int { return len(s.points) }

// Points returns the recorded samples. The returned slice is owned by the
// series; callers must not modify it.
func (s *TimeSeries) Points() []Point { return s.points }

// Last returns the most recent sample and true, or a zero Point and false
// if the series is empty.
func (s *TimeSeries) Last() (Point, bool) {
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// Summary returns Welford statistics over the recorded values.
func (s *TimeSeries) Summary() Welford {
	var w Welford
	for _, p := range s.points {
		w.Add(p.V)
	}
	return w
}

// MeanAfter returns the mean of samples with t >= from, or NaN if there
// are none — used to summarise "final" behaviour of a transient run.
func (s *TimeSeries) MeanAfter(from time.Duration) float64 {
	var w Welford
	for _, p := range s.points {
		if p.T >= from {
			w.Add(p.V)
		}
	}
	if w.Count() == 0 {
		return math.NaN()
	}
	return w.Mean()
}

// WriteDAT writes the series in gnuplot-ready two-column form:
// "# t(sec) <name>" header, then "t v" rows.
func (s *TimeSeries) WriteDAT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# t(sec) %s\n", s.name); err != nil {
		return fmt.Errorf("stats: write header: %w", err)
	}
	for _, p := range s.points {
		if _, err := fmt.Fprintf(bw, "%.6f %.6g\n", p.T.Seconds(), p.V); err != nil {
			return fmt.Errorf("stats: write point: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stats: flush: %w", err)
	}
	return nil
}
