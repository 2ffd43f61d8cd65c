// Adversaries: deterministic attacker middleboxes for the robustness
// harness (internal/conformance's adv-* scenarios). Each one observes
// live traffic through the Middlebox seam, decodes it with the
// production wire codec, and forges frames with the same codec — an
// on-path attacker without the crypto to invent valid traffic from
// nothing, which is exactly the threat model the DSN'05 protocols face
// on an open LAN: no frame is authenticated, so anyone who can see a
// probe can answer it, and anyone who knows a device id can say
// goodbye on its behalf.
//
// All randomness comes from streams forked off the network seed
// (Network.ForkRNG), so for a fixed seed an attacker's behaviour is a
// pure function of the traffic it observes.

package memnet

import (
	"net/netip"
	"sync/atomic"
	"time"

	"presence/internal/ident"
	"presence/internal/rng"
	"presence/internal/wire"
)

// Window bounds when an attacker acts: active at offsets in
// [From, Until), with Until <= 0 meaning forever.
type Window struct {
	From, Until time.Duration
}

func (w Window) contains(at time.Duration) bool {
	return at >= w.From && (w.Until <= 0 || at < w.Until)
}

// ByeSpoofer forges graceful-leave announcements for a live device:
// whenever it observes a probe addressed to the device inside its
// window, it injects — with probability P per probe — a BYE frame
// naming the device, source-spoofed as the device's own address, back
// at the prober. Against an unhardened runtime one such frame removes
// every control point hosted on the receiving socket; a hardened
// runtime (fleet RuntimeConfig.Harden) answers with a verification probe
// instead and keeps the device PRESENT when it still replies.
type ByeSpoofer struct {
	// Device and DeviceAddr name the victim device (frame From field
	// and spoofed source address).
	Device     ident.NodeID
	DeviceAddr netip.AddrPort
	// Window bounds the attack; P is the per-observed-probe injection
	// probability, drawn from R.
	Window Window
	P      float64
	R      *rng.Rand

	injected atomic.Uint64
	scratch  wire.Frame
	bye      []byte
}

// Injected returns how many spoofed BYEs the attacker sent.
func (a *ByeSpoofer) Injected() uint64 { return a.injected.Load() }

// Process implements Middlebox.
func (a *ByeSpoofer) Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action {
	if to != a.DeviceAddr || !a.Window.contains(at) {
		return Pass
	}
	if wire.DecodeFrame(frame, &a.scratch) != nil || a.scratch.Kind != wire.KindProbe {
		return Pass
	}
	if !a.R.Bool(a.P) {
		return Pass
	}
	if a.bye == nil {
		a.bye, _ = wire.AppendEncodeFrame(nil, &wire.Frame{Kind: wire.KindBye, From: a.Device})
	}
	a.injected.Add(1)
	inj.Inject(a.DeviceAddr, from, a.bye)
	return Pass
}

// Replayer captures reply frames leaving the device and replays them —
// verbatim, source-spoofed as the device — into later probe cycles of
// the same receiver. The monotonic (device, cycle) demultiplexing
// already makes a stale cycle number miss the pending table; hardening
// adds the replay window that tells such frames apart from ordinary
// latecomers (fleet Counters.RepliesReplayed vs DemuxDrops).
type Replayer struct {
	DeviceAddr netip.AddrPort
	// Window bounds the replaying (capturing is always on); P is the
	// per-observed-probe replay probability, drawn from R.
	Window Window
	P      float64
	R      *rng.Rand
	// Cap bounds the capture buffer (0 = 64): a ring of the most
	// recent replies.
	Cap int

	injected atomic.Uint64
	scratch  wire.Frame
	captured []capturedReply
	next     int
}

type capturedReply struct {
	frame []byte
	to    netip.AddrPort
}

// Injected returns how many captured replies the attacker replayed.
func (a *Replayer) Injected() uint64 { return a.injected.Load() }

// Process implements Middlebox.
func (a *Replayer) Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action {
	if wire.DecodeFrame(frame, &a.scratch) != nil {
		return Pass
	}
	switch a.scratch.Kind {
	case wire.KindReplySAPP, wire.KindReplyDCPP, wire.KindReplyEmpty:
		if from != a.DeviceAddr {
			return Pass
		}
		cap := a.Cap
		if cap <= 0 {
			cap = 64
		}
		rec := capturedReply{frame: append([]byte(nil), frame...), to: to}
		if len(a.captured) < cap {
			a.captured = append(a.captured, rec)
		} else {
			a.captured[a.next] = rec
			a.next = (a.next + 1) % cap
		}
	case wire.KindProbe:
		if to != a.DeviceAddr || !a.Window.contains(at) || len(a.captured) == 0 {
			return Pass
		}
		if !a.R.Bool(a.P) {
			return Pass
		}
		rec := a.captured[a.R.Intn(len(a.captured))]
		a.injected.Add(1)
		inj.Inject(a.DeviceAddr, rec.to, rec.frame)
	}
	return Pass
}

// Byzantine answers for the dead: inside its window (typically opened
// at the device's crash instant) it forges a well-formed reply — right
// device id, right cycle, right attempt — to every probe it observes,
// from its own address, since the crashed device's address is
// unreachable. An unhardened runtime accepts the reply (the pending
// table matches) and believes the device alive forever; a hardened one
// rejects the non-device source address (fleet Counters.RepliesForged)
// and detects the crash on schedule.
type Byzantine struct {
	// Device and DeviceAddr name the dead device being impersonated.
	Device     ident.NodeID
	DeviceAddr netip.AddrPort
	// Source is the attacker's own address (any address the network
	// has not partitioned away; it need not be a live endpoint).
	Source netip.AddrPort
	// Wait is the DCPP wait the forged replies dictate (0 = 600 ms).
	Wait   time.Duration
	Window Window

	injected atomic.Uint64
	scratch  wire.Frame
	buf      []byte
}

// Injected returns how many forged replies the attacker sent.
func (a *Byzantine) Injected() uint64 { return a.injected.Load() }

// Process implements Middlebox.
func (a *Byzantine) Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action {
	if to != a.DeviceAddr || !a.Window.contains(at) {
		return Pass
	}
	if wire.DecodeFrame(frame, &a.scratch) != nil || a.scratch.Kind != wire.KindProbe {
		return Pass
	}
	wait := a.Wait
	if wait == 0 {
		wait = 600 * time.Millisecond
	}
	f := wire.Frame{
		Kind: wire.KindReplyDCPP, From: a.Device,
		Cycle: a.scratch.Cycle, Attempt: a.scratch.Attempt, Wait: wait,
	}
	a.buf, _ = wire.AppendEncodeFrame(a.buf[:0], &f)
	a.injected.Add(1)
	inj.Inject(a.Source, from, a.buf)
	return Pass
}

// Amplifier turns the device into a reflector aimed at a victim: for
// every honest probe it observes inside its window it injects Factor
// forged probes whose source address is the victim's, each with a
// fresh cycle number, so the device's replies flood the victim. An
// unhardened device answers every one (amplification factor ≈ 1 reply
// per injected probe); a hardened one sheds the per-source flood
// (fleet Counters.ProbesShed) and the reflection collapses to the
// token-bucket rate.
type Amplifier struct {
	DeviceAddr netip.AddrPort
	// VictimID is the node id the forged probes claim to be from — an
	// id of the attacker's choosing, distinct from real control points.
	// VictimAddr is the address being flooded with reflected replies.
	VictimID   ident.NodeID
	VictimAddr netip.AddrPort
	// Factor is the number of forged probes injected per observed
	// honest probe (0 = 8).
	Factor int
	Window Window

	injected atomic.Uint64
	scratch  wire.Frame
	cycle    uint32
	buf      []byte
}

// Injected returns how many forged probes the attacker sent.
func (a *Amplifier) Injected() uint64 { return a.injected.Load() }

// Process implements Middlebox.
func (a *Amplifier) Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action {
	if to != a.DeviceAddr || from == a.VictimAddr || !a.Window.contains(at) {
		return Pass
	}
	if wire.DecodeFrame(frame, &a.scratch) != nil || a.scratch.Kind != wire.KindProbe {
		return Pass
	}
	factor := a.Factor
	if factor <= 0 {
		factor = 8
	}
	for i := 0; i < factor; i++ {
		a.cycle++
		f := wire.Frame{Kind: wire.KindProbe, From: a.VictimID, Cycle: a.cycle}
		a.buf, _ = wire.AppendEncodeFrame(a.buf[:0], &f)
		a.injected.Add(1)
		inj.Inject(a.VictimAddr, a.DeviceAddr, a.buf)
	}
	return Pass
}
