// Authentication adversaries: attacker middleboxes for the wire-v2
// robustness harness (internal/conformance's adv-auth-* scenarios).
// Where adversary.go's attackers forge frames from whole cloth, these
// four start from traffic they observed — the strongest position a
// keyless on-path attacker can hold against authenticated frames:
//
//   - Tamperer rewrites observed replies into BYEs, preserving the
//     observed version. Against v1 it recomputes the CRC (public
//     algorithm) and the forgery is perfect; against v2 it can only
//     reuse the observed, now-stale tag, which verification rejects.
//   - BitFlipper injects copies of observed frames with random bits
//     flipped — line noise and low-effort corruption. v1's CRC catches
//     every single-bit flip; v2 has no CRC, so the authentication tag must catch
//     body and tag corruption alike.
//   - TagStripper re-encodes observed v2 frames as valid v1 frames
//     (tag removed, CRC computed) — the classic downgrade-in-transit.
//     Only the receiver's negotiation policy (the per-device v2
//     high-water mark, or Require) can refuse these.
//   - Downgrader answers probes on behalf of a dead device with
//     well-formed v1 replies spoofed from the device's own address:
//     right id, right cycle, right attempt, right source. Every PR-6
//     heuristic passes; only authentication tells it from the device.
//
// All four inject copies and pass the original traffic through, so
// they never manufacture packet loss: any false verdict in an attacked
// run is attributable to a forged frame being ACCEPTED, which is
// exactly the zero-tolerance property the harness gates.
//
// Randomness comes from streams forked off the network seed
// (Network.ForkRNG), so each attack replays bit for bit per seed.

package memnet

import (
	"net/netip"
	"sync/atomic"
	"time"

	"presence/internal/ident"
	"presence/internal/rng"
	"presence/internal/wire"
)

// Tamperer rewrites observed reply frames into BYE frames for the
// device and injects them source-spoofed as the device, preserving the
// observed wire version. A v1 rewrite carries a freshly computed CRC
// and is indistinguishable from a genuine BYE; a v2 rewrite carries
// the observed reply's tag, which does not cover the rewritten bytes —
// the receiver's verification must reject it (fleet
// Counters.AuthRejected) or the attacker has manufactured a graceful
// leave for a live device.
type Tamperer struct {
	// Device and DeviceAddr name the victim whose replies are rewritten.
	Device     ident.NodeID
	DeviceAddr netip.AddrPort
	// Window bounds the attack; P is the per-observed-reply tamper
	// probability, drawn from R.
	Window Window
	P      float64
	R      *rng.Rand

	injected atomic.Uint64
	scratch  wire.Frame
	buf      []byte
}

// Injected returns how many tampered BYEs the attacker sent.
func (a *Tamperer) Injected() uint64 { return a.injected.Load() }

// Process implements Middlebox.
func (a *Tamperer) Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action {
	if from != a.DeviceAddr || !a.Window.contains(at) {
		return Pass
	}
	if wire.DecodeFrame(frame, &a.scratch) != nil {
		return Pass
	}
	switch a.scratch.Kind {
	case wire.KindReplySAPP, wire.KindReplyDCPP, wire.KindReplyEmpty:
	default:
		return Pass
	}
	if !a.R.Bool(a.P) {
		return Pass
	}
	bye := wire.Frame{
		Kind: wire.KindBye, From: a.Device,
		Version: a.scratch.Version, Tag: a.scratch.Tag,
	}
	out, err := wire.AppendEncodeFrame(a.buf[:0], &bye)
	if err != nil {
		return Pass
	}
	a.buf = out
	a.injected.Add(1)
	inj.Inject(a.DeviceAddr, to, out)
	return Pass
}

// BitFlipper injects, for observed frames on the device's link, copies
// with FlipBits random bits flipped — anywhere in the frame, header,
// payload or trailer. No flipped copy may ever be accepted: v1 frames
// die on the CRC, v2 frames must die on decode or on tag verification
// (a v2 body flip leaves a structurally valid frame that only the tag
// can refute).
type BitFlipper struct {
	DeviceAddr netip.AddrPort
	// Window bounds the attack; P is the per-observed-frame injection
	// probability, drawn from R. FlipBits is flips per copy (0 = 1).
	Window   Window
	P        float64
	FlipBits int
	R        *rng.Rand

	injected atomic.Uint64
	buf      []byte
}

// Injected returns how many corrupted copies the attacker sent.
func (a *BitFlipper) Injected() uint64 { return a.injected.Load() }

// Process implements Middlebox.
func (a *BitFlipper) Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action {
	if (from != a.DeviceAddr && to != a.DeviceAddr) || !a.Window.contains(at) {
		return Pass
	}
	if len(frame) == 0 || !a.R.Bool(a.P) {
		return Pass
	}
	a.buf = append(a.buf[:0], frame...)
	flips := a.FlipBits
	if flips <= 0 {
		flips = 1
	}
	for i := 0; i < flips; i++ {
		bit := a.R.Intn(8 * len(a.buf))
		a.buf[bit/8] ^= 1 << (bit % 8)
	}
	a.injected.Add(1)
	inj.Inject(from, to, a.buf)
	return Pass
}

// TagStripper downgrades observed v2 frames in transit: each one is
// re-encoded as a valid v1 frame — tag removed, CRC computed — and
// injected alongside the original with the original's own source
// address. The stripped copy is a perfectly well-formed v1 frame with
// genuine content; nothing about the frame itself is wrong. Only the
// receiver's negotiation policy can refuse it: the per-device v2
// high-water mark (the sender has spoken v2, so v1 from it is a
// downgrade) or RuntimeConfig.AuthRequire. Every stripped frame a fleet
// receives must land in Counters.AuthDowngraded.
type TagStripper struct {
	DeviceAddr netip.AddrPort
	// Window bounds the attack; P is the per-observed-v2-frame strip
	// probability, drawn from R.
	Window Window
	P      float64
	R      *rng.Rand

	injected atomic.Uint64
	scratch  wire.Frame
	buf      []byte
}

// Injected returns how many stripped v1 copies the attacker sent.
func (a *TagStripper) Injected() uint64 { return a.injected.Load() }

// Process implements Middlebox.
func (a *TagStripper) Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action {
	if (from != a.DeviceAddr && to != a.DeviceAddr) || !a.Window.contains(at) {
		return Pass
	}
	if wire.DecodeFrame(frame, &a.scratch) != nil || a.scratch.Version != wire.VersionAuth {
		return Pass
	}
	if !a.R.Bool(a.P) {
		return Pass
	}
	stripped := a.scratch
	stripped.Version = wire.Version
	out, err := wire.AppendEncodeFrame(a.buf[:0], &stripped)
	if err != nil {
		return Pass
	}
	a.buf = out
	a.injected.Add(1)
	inj.Inject(from, to, out)
	return Pass
}

// Downgrader answers for the dead in v1: inside its window (opened at
// the device's crash instant) it forges, for every probe it observes,
// an unauthenticated reply with the right device id, right cycle,
// right attempt AND the device's own source address. Source pinning,
// the attempt bitmask and the replay window all pass — this is the
// attack PR-6's heuristics cannot stop. An authenticated receiver
// rejects it on version alone once the device has spoken v2
// (Counters.AuthDowngraded) and detects the crash on schedule; an
// unauthenticated receiver, hardened or not, believes the device alive
// forever.
type Downgrader struct {
	// Device and DeviceAddr name the dead device being impersonated.
	Device     ident.NodeID
	DeviceAddr netip.AddrPort
	// Wait is the DCPP wait the forged replies dictate (0 = 600 ms).
	Wait   time.Duration
	Window Window

	injected atomic.Uint64
	scratch  wire.Frame
	buf      []byte
}

// Injected returns how many forged v1 replies the attacker sent.
func (a *Downgrader) Injected() uint64 { return a.injected.Load() }

// Process implements Middlebox.
func (a *Downgrader) Process(at time.Duration, from, to netip.AddrPort, frame []byte, inj Injector) Action {
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
	out, err := wire.AppendEncodeFrame(a.buf[:0], &f)
	if err != nil {
		return Pass
	}
	a.buf = out
	a.injected.Add(1)
	inj.Inject(a.DeviceAddr, from, out)
	return Pass
}
