// Command probed runs a presence-protocol device daemon on a UDP
// socket. Control points (cmd/probecp) can then monitor it; killing the
// daemon (Ctrl-C sends a bye first, SIGKILL is a silent crash) exercises
// the two leave paths the paper distinguishes.
//
// Usage:
//
//	probed [-listen ADDR] [-id N] [-protocol sapp|dcpp|naive]
//	       [-min-gap D] [-min-cp-delay D]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/protocol"
	"presence/internal/fleet"
	"presence/internal/ident"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "probed:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("probed", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:9300", "UDP listen address")
		id         = fs.Uint("id", 1, "device node id")
		proto      = fs.String("protocol", "dcpp", "protocol: sapp, dcpp or naive")
		minGap     = fs.Duration("min-gap", dcpp.DefaultMinGap, "DCPP δ_min (inverse nominal load)")
		minCPDelay = fs.Duration("min-cp-delay", dcpp.DefaultMinCPDelay, "DCPP d_min (inverse max CP frequency)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	devID := ident.NodeID(id64(*id))
	name := protocol.Name(*proto)
	params := protocol.Params{DCPPDevice: dcpp.DeviceConfig{MinGap: *minGap, MinCPDelay: *minCPDelay}}
	build := func(env core.Env) (core.Device, error) { return name.NewDevice(devID, env, params) }
	f, err := fleet.New(fleet.Config{Shards: 1, ListenAddr: *listen})
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Start(); err != nil {
		return err
	}
	dev, err := f.AddDevice(devID, build)
	if err != nil {
		return err
	}
	fmt.Printf("probed: %s device %v listening on %s\n", name, devID, dev.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig) // a second Ctrl-C kills us the ordinary way
	fmt.Println("probed: announcing bye and shutting down")
	dev.Bye() // written to the socket before it returns
	peers, c := dev.Peers(), f.Snapshot().Total
	err = f.Close()
	fmt.Printf("probed: served %d peers; %d packets in, %d out; %d decode errors, %d send errors\n",
		peers, c.PacketsIn, c.PacketsOut, c.DecodeErrors, c.SendErrors)
	return err
}

func id64(v uint) uint32 {
	if v == 0 || v > 1<<31 {
		return 1
	}
	return uint32(v)
}
