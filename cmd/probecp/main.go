// Command probecp runs a control point that monitors a device daemon
// (cmd/probed) over UDP, printing presence events as they happen.
//
// Usage:
//
//	probecp [-device ADDR] [-device-id N] [-id N]
//	        [-protocol sapp|dcpp|naive] [-period D] [-restart]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"presence/internal/core"
	"presence/internal/core/protocol"
	"presence/internal/fleet"
	"presence/internal/ident"
)

// printer logs presence events with wall-clock timestamps.
type printer struct {
	mu      sync.Mutex
	start   time.Time
	lost    chan struct{}
	verbose bool
}

func (p *printer) stamp() string {
	return time.Since(p.start).Round(time.Millisecond).String()
}

func (p *printer) DeviceAlive(dev ident.NodeID, res core.CycleResult) {
	if !p.verbose {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Printf("[%s] device %v alive (attempts %d, rtt %v)\n",
		p.stamp(), dev, res.Attempts, res.RepliedAt-res.SentAt)
}

func (p *printer) DeviceLost(dev ident.NodeID, _ time.Duration) {
	p.mu.Lock()
	fmt.Printf("[%s] device %v LOST (no reply to a full probe cycle)\n", p.stamp(), dev)
	p.mu.Unlock()
	select {
	case p.lost <- struct{}{}:
	default:
	}
}

func (p *printer) DeviceBye(dev ident.NodeID, _ time.Duration) {
	p.mu.Lock()
	fmt.Printf("[%s] device %v said BYE (graceful leave)\n", p.stamp(), dev)
	p.mu.Unlock()
	select {
	case p.lost <- struct{}{}:
	default:
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "probecp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("probecp", flag.ContinueOnError)
	var (
		device   = fs.String("device", "127.0.0.1:9300", "device UDP address")
		deviceID = fs.Uint("device-id", 1, "device node id")
		id       = fs.Uint("id", 2, "this control point's node id")
		proto    = fs.String("protocol", "dcpp", "protocol: sapp, dcpp or naive")
		period   = fs.Duration("period", time.Second, "naive probe period")
		restart  = fs.Bool("restart", false, "keep probing after the device is lost")
		verbose  = fs.Bool("v", false, "log every successful cycle")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := protocol.Name(*proto).NewPolicy(protocol.Params{NaivePeriod: *period})
	if err != nil {
		return err
	}
	lst := &printer{start: time.Now(), lost: make(chan struct{}, 1), verbose: *verbose}
	f, err := fleet.New(fleet.Config{Shards: 1, ListenAddr: ":0"})
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Start(); err != nil {
		return err
	}
	cp, err := f.AddControlPoint(fleet.CPConfig{
		ID:         ident.NodeID(uint32(*id)),
		Device:     ident.NodeID(uint32(*deviceID)),
		DeviceAddr: *device,
		Policy:     policy,
		Listener:   lst,
	})
	if err != nil {
		return err
	}
	fmt.Printf("probecp: monitoring device %d at %s via %s\n", *deviceID, *device, *proto)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-sig:
			signal.Stop(sig) // a second Ctrl-C kills us the ordinary way
			fmt.Println("probecp: shutting down")
			return finalDump(f, cp)
		case <-lst.lost:
			if !*restart {
				fmt.Println("probecp: stopping after loss")
				return finalDump(f, cp)
			}
			fmt.Println("probecp: restarting monitor")
			time.Sleep(time.Second)
			if err := cp.Restart(); err != nil {
				return err
			}
		}
	}
}

// finalDump prints the final cycle and wire counters, then closes the
// fleet (stopping the prober and the shard loop).
func finalDump(f *fleet.Fleet, cp *fleet.ControlPoint) error {
	st, c := cp.Stats(), f.Snapshot().Total
	fmt.Printf("probecp: %d cycles ok, %d failed, %d probes, %d retransmits, %d stale replies\n",
		st.CyclesOK, st.CyclesFailed, st.ProbesSent, st.Retransmits, st.StaleReplies)
	fmt.Printf("probecp: %d packets in, %d out; %d decode errors, %d send errors\n",
		c.PacketsIn, c.PacketsOut, c.DecodeErrors, c.SendErrors)
	return f.Close()
}
