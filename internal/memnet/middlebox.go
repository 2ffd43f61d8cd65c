package memnet

import (
	"net/netip"
	"time"
)

// Action is a middlebox's decision about one datagram it processed.
type Action uint8

const (
	// Pass forwards the datagram unchanged into the link fault plan.
	Pass Action = iota
	// Drop discards the datagram (counted Filtered, observed with the
	// Filtered verdict).
	Drop
)

// Middlebox is a composable network element on the send path — the
// seam adversaries (internal/memnet's attacker implementations, or any
// test double) hook into. Every datagram accepted from an endpoint
// traverses the installed chain in install order, at the sender's
// first hop: before the destination's down check and before the link
// fault plan, so an on-path attacker observes even traffic addressed
// to a crashed endpoint, exactly like a tap next to the sender.
//
// Process may inspect the frame and return Pass or Drop, and may
// originate datagrams of its own through the Injector. It runs under
// the network mutex, possibly from several sender goroutines in turn:
// it must be cheap, must not block, and must not call back into the
// Network (use the Injector, which is safe under the held lock). The
// frame slice is only valid for the duration of the call; copy it to
// keep it.
//
// Determinism: a middlebox that draws randomness should use a stream
// forked off the network seed (Network.ForkRNG) so its decisions are a
// pure function of (seed, observed traffic), like every link fault.
type Middlebox interface {
	Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action
}

// Injector originates datagrams on behalf of a middlebox. Injected
// datagrams carry an arbitrary (possibly spoofed) source address, skip
// the middlebox chain — no feedback loops — and then ride the from→to
// link's fault plan like any endpoint send: they can be delayed, lost,
// duplicated, or dropped when either address is partitioned away. They
// are counted separately (Counters.Injected) and marked on the
// observer tap (PacketEvent.Injected).
//
// The zero Injector is invalid; use the one handed to Process.
type Injector struct {
	n *Network
}

// Inject sends one forged datagram. Call only from within
// Middlebox.Process (the network mutex is held there).
func (in Injector) Inject(from, to netip.AddrPort, frame []byte) {
	n := in.n
	if n == nil || n.closed {
		return
	}
	n.cnt.Injected++
	n.forwardLocked(from, to, frame, true, n.cnt.Sent)
}
