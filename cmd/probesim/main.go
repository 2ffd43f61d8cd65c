// Command probesim runs a single presence-protocol simulation scenario
// and prints the measured device load, per-CP fairness and detection
// statistics.
//
// Scenarios come either from flags (protocol, population, loss) or from
// the declarative scenario engine: -scenario accepts a registered name
// (see -list-scenarios) or a path to a scenario JSON file, and
// -dump-scenario writes the selected scenario as JSON for editing.
//
// Usage:
//
//	probesim [-protocol sapp|dcpp|naive] [-cps N] [-duration D] [-seed N]
//	         [-churn] [-kill-at D] [-leave-at D -leave-to N]
//	         [-loss P] [-ge-loss-bad P -ge-good-to-bad P -ge-bad-to-good P [-ge-loss-good P]]
//	         [-scenario NAME|FILE] [-dump-scenario FILE] [-list-scenarios]
//	         [-plot] [-out FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"presence/internal/asciiplot"
	"presence/internal/core/protocol"
	"presence/internal/scenario"
	"presence/internal/simnet"
	"presence/internal/simrun"
	"presence/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "probesim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("probesim", flag.ContinueOnError)
	var (
		proto     = fs.String("protocol", "dcpp", "protocol: sapp, dcpp or naive")
		cps       = fs.Int("cps", 20, "number of control points")
		duration  = fs.Duration("duration", 10*time.Minute, "simulated horizon")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		churn     = fs.Bool("churn", false, "enable the paper's Fig. 5 churn instead of a static population")
		killAt    = fs.Duration("kill-at", 0, "crash the device silently at this time (0 = never)")
		leaveAt   = fs.Duration("leave-at", 0, "mass-leave time (0 = never)")
		leaveTo   = fs.Int("leave-to", 2, "population remaining after the mass leave")
		loss      = fs.Float64("loss", 0, "Bernoulli packet-loss probability")
		geLossBad = fs.Float64("ge-loss-bad", 0, "Gilbert-Elliott loss probability in the Bad state")
		geLossGd  = fs.Float64("ge-loss-good", 0, "Gilbert-Elliott loss probability in the Good state")
		geG2B     = fs.Float64("ge-good-to-bad", 0, "Gilbert-Elliott P(Good→Bad) per message")
		geB2G     = fs.Float64("ge-bad-to-good", 0, "Gilbert-Elliott P(Bad→Good) per message")
		devices   = fs.Int("devices", 1, "number of devices (every CP monitors each)")
		discovery = fs.Bool("discovery", false, "enable UPnP-style announcements; CPs discover devices dynamically")
		traceFile = fs.String("trace", "", "write a deterministic event trace to this file")
		plot      = fs.Bool("plot", false, "render the device load as an ASCII plot")
		outFile   = fs.String("out", "", "write the device-load series to this .dat file")
		scenFlag  = fs.String("scenario", "", "run a declarative scenario: a registered name or a JSON file path")
		dumpFile  = fs.String("dump-scenario", "", "write the selected -scenario as JSON to FILE and exit")
		listScen  = fs.Bool("list-scenarios", false, "list registered scenario names and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listScen {
		for _, s := range scenario.All() {
			fmt.Fprintf(out, "%-20s %s\n", s.Name, s.Description)
		}
		return nil
	}

	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	geSet := explicit["ge-loss-bad"] || explicit["ge-loss-good"] ||
		explicit["ge-good-to-bad"] || explicit["ge-bad-to-good"]
	if geSet && explicit["loss"] {
		return fmt.Errorf("-loss and the -ge-* flags select competing loss models; use one")
	}
	if geSet && *geG2B == 0 && *geLossGd == 0 {
		// The channel starts in the Good state; with no Good-state loss
		// and no Good→Bad transition it can never lose a message.
		return fmt.Errorf("the Gilbert-Elliott channel needs -ge-good-to-bad > 0 (or -ge-loss-good > 0); as given it would never lose anything")
	}

	var (
		w       *simrun.World
		horizon = *duration
	)
	if *scenFlag != "" {
		// Declarative path: the scenario defines protocol, population and
		// models; only -seed, -duration and the output flags compose.
		// -kill-at deliberately composes with -scenario (it adds a
		// schedule event rather than overriding the scenario's models).
		for _, conflicting := range []string{
			"protocol", "cps", "churn", "leave-at", "leave-to",
			"loss", "ge-loss-bad", "ge-loss-good", "ge-good-to-bad", "ge-bad-to-good",
			"devices", "discovery",
		} {
			if explicit[conflicting] {
				return fmt.Errorf("-%s conflicts with -scenario (the scenario defines it); edit the scenario instead", conflicting)
			}
		}
		spec, err := scenario.Resolve(*scenFlag)
		if err != nil {
			return err
		}
		if *dumpFile != "" {
			b, err := spec.Encode()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*dumpFile, b, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "scenario written  %s\n", *dumpFile)
			return nil
		}
		cfg, err := spec.Config(*seed)
		if err != nil {
			return err
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			defer f.Close()
			cfg.Trace = f
		}
		w, err = simrun.NewWorld(cfg)
		if err != nil {
			return err
		}
		if err := spec.Populate(w); err != nil {
			return err
		}
		if !explicit["duration"] {
			horizon = spec.Horizon.Std()
		}
		fmt.Fprintf(out, "scenario        %s\n", spec.Name)
	} else {
		if *dumpFile != "" {
			return fmt.Errorf("-dump-scenario requires -scenario")
		}
		cfg := simrun.Config{
			Protocol:       protocol.Name(*proto),
			Seed:           *seed,
			Devices:        *devices,
			RecordCPSeries: false,
		}
		if *loss > 0 {
			cfg.Net.Loss = simnet.Bernoulli{P: *loss}
		}
		if geSet {
			ge := &simnet.GilbertElliott{
				GoodToBad: *geG2B, BadToGood: *geB2G,
				LossGood: *geLossGd, LossBad: *geLossBad,
			}
			if err := ge.Validate(); err != nil {
				return err
			}
			cfg.Net.Loss = ge
		}
		if *discovery {
			cfg.Discovery = simrun.DiscoveryConfig{Enabled: true, ProbeOnDiscovery: true}
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			defer f.Close()
			cfg.Trace = f
		}
		var err error
		w, err = simrun.NewWorld(cfg)
		if err != nil {
			return err
		}
		if *churn {
			if err := w.StartChurn(simrun.DefaultUniformChurn()); err != nil {
				return err
			}
		} else if err := w.AddCPsStaggered(*cps, 5*time.Second); err != nil {
			return err
		}
		if *leaveAt > 0 {
			if err := w.ScheduleMassLeave(*leaveAt, *leaveTo); err != nil {
				return err
			}
		}
	}
	var killTime time.Duration
	if *killAt > 0 {
		killTime = *killAt
		w.ScheduleDeviceCrash(*killAt)
	}
	w.Run(horizon)

	load := w.DeviceLoad().Stats()
	fmt.Fprintf(out, "protocol        %s\n", w.Config().Protocol)
	fmt.Fprintf(out, "simulated       %v (%d events)\n", horizon, w.Sim().Executed())
	fmt.Fprintf(out, "device load     mean %.3f /s, var %.3f, peak %.1f /s (%d probes)\n",
		load.Mean(), load.Variance(), load.Max(), w.DeviceLoad().Total())
	occ := w.Net().BufferOccupancy()
	fmt.Fprintf(out, "net buffer      mean %.4g msgs, max %.0f\n", occ.Mean(), occ.Max())
	c := w.Net().Counters()
	fmt.Fprintf(out, "net counters    sent %d delivered %d lost %d overflowed %d unroutable %d\n",
		c.Sent, c.Delivered, c.LostInFlight, c.Overflowed, c.Unroutable)
	fmt.Fprintf(out, "active cps      mean %.3f (time-weighted)\n", w.CPCountStats().Mean())
	freqs := w.CPFrequencies()
	if len(freqs) > 0 {
		lo, hi := freqs[0], freqs[len(freqs)-1]
		fmt.Fprintf(out, "cp frequencies  %d active, range [%.3g, %.3g] /s, Jain fairness %.4f\n",
			len(freqs), lo, hi, stats.JainIndex(freqs))
	}
	if killTime > 0 {
		var lat stats.Welford
		detected := 0
		for _, h := range w.ActiveCPs() {
			if h.Lost {
				detected++
				lat.Add((h.LostAt - killTime).Seconds())
			}
		}
		fmt.Fprintf(out, "crash detection %d/%d CPs, latency mean %.3fs max %.3fs\n",
			detected, len(w.ActiveCPs()), lat.Mean(), lat.Max())
	}
	if *plot {
		fmt.Fprintln(out, asciiplot.Render([]*stats.TimeSeries{w.DeviceLoad().Series()}, asciiplot.Options{
			Title: "device load (probes/s)", Width: 100, Height: 20,
		}))
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := w.DeviceLoad().Series().WriteDAT(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "series written  %s\n", *outFile)
	}
	return nil
}
