// Adversarial robustness harness: runs an adv-* scenario's attack-free
// simulation as ground truth, replays the same membership schedule
// against the real fleet runtime with the scenario's attackers
// installed as memnet middleboxes, and scores the damage. The
// headline metrics are the two ways a presence monitor can lie —
// false ABSENT (an absent-type verdict while the device was up) and
// false PRESENT (a present CP that never notices the crash) — plus
// the amplification factor of reflection attacks and the defense-side
// accounting (sheds, rejected forgeries, bye verifications).
//
// The pass gate applies to hardened runs only: zero false verdicts of
// either kind and zero invariant violations. Unhardened runs are
// informational — they exist to demonstrate that the attacks work, so
// their failures are the data, not a test failure.

package conformance

import (
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"

	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/scenario"
)

// AdvCase names one adversarial scenario and how to replay it.
type AdvCase struct {
	// Scenario is a registered adv-* scenario name (or JSON file path);
	// its spec must carry an adversary section and schedule exactly one
	// device event.
	Scenario string
	// Shards is the CP fleet's shard count (0 = 2).
	Shards int
	// Harden toggles the fleet defenses — the comparison axis.
	Harden bool
	// Auth runs both fleets with frame authentication on (shared master
	// key, Require mode): every frame carries a v2 authentication tag and
	// unauthenticated frames are refused. The defense axis for the
	// adv-auth-* scenarios.
	Auth bool
}

// DefaultAdvCases returns the standing adversarial battery over the
// four registered adv-* scenarios, at the given hardening setting.
func DefaultAdvCases(harden bool) []AdvCase {
	return []AdvCase{
		{Scenario: "adv-spoofed-bye", Harden: harden},
		{Scenario: "adv-replay", Harden: harden},
		{Scenario: "adv-byzantine", Harden: harden},
		{Scenario: "adv-amplify", Harden: harden},
	}
}

// DefaultAuthAdvCases returns the authenticated-wire battery over the
// four adv-auth-* scenarios. With auth on, the runs are gated (zero
// forged frames accepted, zero false verdicts); with auth off they are
// the demonstration that the attacks bite an unauthenticated runtime.
func DefaultAuthAdvCases(auth bool) []AdvCase {
	return []AdvCase{
		{Scenario: "adv-auth-tamper", Harden: auth, Auth: auth},
		{Scenario: "adv-auth-bitflip", Harden: auth, Auth: auth},
		{Scenario: "adv-auth-strip", Harden: auth, Auth: auth},
		{Scenario: "adv-auth-downgrade", Harden: auth, Auth: auth},
	}
}

// AdvMetrics scores one attacked replay.
type AdvMetrics struct {
	// PresentAtEvent sizes the population whose verdicts are at stake.
	PresentAtEvent int `json:"present_at_event"`
	// FalseAbsent counts absent-type verdicts (lost or bye) issued
	// before the device event; FalsePresent counts present CPs with no
	// verdict at all by the horizon after a crash. Both must be zero
	// under Harden.
	FalseAbsent  int `json:"false_absent"`
	FalsePresent int `json:"false_present"`
	// InjectedFrames counts every frame the attackers originated;
	// FilteredFrames counts frames middleboxes dropped.
	InjectedFrames uint64 `json:"injected_frames"`
	FilteredFrames uint64 `json:"filtered_frames"`
	// VictimReplies counts reply datagrams the device reflected at the
	// amplifier's victim; AmplificationFactor is VictimReplies per
	// forged probe the amplifier injected (≈1 undefended, collapsing
	// toward the admission rate under Harden).
	VictimReplies       uint64  `json:"victim_replies"`
	AmplificationFactor float64 `json:"amplification_factor"`
	// ShedRate is ProbesShed over all probe-bearing datagrams the device
	// fleet received.
	ShedRate float64 `json:"shed_rate"`
	// Defense-side counters, summed over both fleets' shards.
	AttemptMismatches uint64 `json:"attempt_mismatches"`
	RepliesForged     uint64 `json:"replies_forged"`
	ByesForged        uint64 `json:"byes_forged"`
	RepliesReplayed   uint64 `json:"replies_replayed"`
	ProbesShed        uint64 `json:"probes_shed"`
	// Engine-level bye-verification accounting, summed over all CPs.
	ByeVerifications uint64 `json:"bye_verifications"`
	SpoofedByes      uint64 `json:"spoofed_byes"`
	// Frame-authentication accounting, summed over both fleets' shards.
	// With auth on, every tampered v2 frame must land in AuthRejected
	// and every stripped or downgraded v1 frame that reaches a live
	// endpoint in AuthDowngraded — never in a verdict.
	AuthVerified   uint64 `json:"auth_verified"`
	AuthStaleKey   uint64 `json:"auth_stale_key"`
	AuthRejected   uint64 `json:"auth_rejected"`
	AuthDowngraded uint64 `json:"auth_downgraded"`
}

// AdvResult is one adversarial case's outcome.
type AdvResult struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Harden   bool   `json:"harden"`
	Auth     bool   `json:"auth"`
	// Sim is the attack-free simulator baseline of the same spec and
	// seed; Fleet is the attacked replay's view.
	Sim   RuntimeMetrics `json:"sim"`
	Fleet RuntimeMetrics `json:"fleet"`
	Adv   AdvMetrics     `json:"adv"`
	// Violations is gated only under Harden: attacks are expected to
	// break invariants of an undefended runtime.
	Violations    []string        `json:"violations"`
	TappedPackets uint64          `json:"tapped_packets"`
	Net           memnet.Counters `json:"net_counters"`
	Pass          bool            `json:"pass"`
}

// Format renders the result as a readable block (valid Markdown).
func (r *AdvResult) Format() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	mode := "unhardened"
	if r.Harden {
		mode = "hardened"
	}
	if r.Auth {
		mode += "+auth"
	}
	fmt.Fprintf(&b, "### adversarial %s — seed %d, %s — %s\n\n", r.Scenario, r.Seed, mode, verdict)
	a := &r.Adv
	fmt.Fprintf(&b, "- verdicts: %d present at event, %d false-ABSENT, %d false-PRESENT\n",
		a.PresentAtEvent, a.FalseAbsent, a.FalsePresent)
	fmt.Fprintf(&b, "- attack: %d frames injected, %d filtered", a.InjectedFrames, a.FilteredFrames)
	if a.VictimReplies > 0 || a.AmplificationFactor > 0 {
		fmt.Fprintf(&b, ", amplification ×%.2f (%d replies at the victim)", a.AmplificationFactor, a.VictimReplies)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "- defense: %d attempt mismatches, %d forged replies, %d forged byes, %d replayed, %d shed (rate %.2f), %d bye verifications (%d spoofs refuted)\n",
		a.AttemptMismatches, a.RepliesForged, a.ByesForged, a.RepliesReplayed, a.ProbesShed, a.ShedRate,
		a.ByeVerifications, a.SpoofedByes)
	if r.Auth || a.AuthVerified+a.AuthRejected+a.AuthDowngraded > 0 {
		fmt.Fprintf(&b, "- auth: %d verified, %d stale-key, %d rejected, %d downgrades refused\n",
			a.AuthVerified, a.AuthStaleKey, a.AuthRejected, a.AuthDowngraded)
	}
	fmt.Fprintf(&b, "- invariants: %d violations over %d tapped packets\n", len(r.Violations), r.TappedPackets)
	if r.Harden {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - VIOLATION: %s\n", v)
		}
	}
	return b.String()
}

// victimID is the node id the amplifier's forged probes claim; far
// outside the harness's CP id range.
const victimID ident.NodeID = 0x7fffff00

// advTaps holds the installed attackers and the victim-side reply
// count, for post-run accounting. Nil when the spec is benign.
type advTaps struct {
	spoofer    *memnet.ByeSpoofer
	replayer   *memnet.Replayer
	byzantine  *memnet.Byzantine
	amplifier  *memnet.Amplifier
	tamperer   *memnet.Tamperer
	bitflipper *memnet.BitFlipper
	stripper   *memnet.TagStripper
	downgrader *memnet.Downgrader
	victimAddr netip.AddrPort

	victimReplies atomic.Uint64
}

// injected sums the frames every installed attacker originated.
func (t *advTaps) injected() uint64 {
	var n uint64
	if t.spoofer != nil {
		n += t.spoofer.Injected()
	}
	if t.replayer != nil {
		n += t.replayer.Injected()
	}
	if t.byzantine != nil {
		n += t.byzantine.Injected()
	}
	if t.amplifier != nil {
		n += t.amplifier.Injected()
	}
	if t.tamperer != nil {
		n += t.tamperer.Injected()
	}
	if t.bitflipper != nil {
		n += t.bitflipper.Injected()
	}
	if t.stripper != nil {
		n += t.stripper.Injected()
	}
	if t.downgrader != nil {
		n += t.downgrader.Injected()
	}
	return n
}

// installAdversaries compiles the spec's adversary section into memnet
// middleboxes. Attack windows are authored in scenario time; the
// replay's schedule starts a beat after the network epoch, so they are
// shifted by the elapsed setup time. Byzantine and amplifier attacks
// need bystander endpoints (an attacker source address, a victim to
// flood); those are opened on the same network and closed with it.
func installAdversaries(net *memnet.Network, spec *scenario.Spec, deviceAddr netip.AddrPort) (*advTaps, error) {
	if spec.Adversary == nil {
		return nil, nil
	}
	shift := net.Since()
	window := func(w scenario.AttackWindow) memnet.Window {
		out := memnet.Window{From: w.From.Std() + shift}
		if w.Until > 0 {
			out.Until = w.Until.Std() + shift
		}
		return out
	}
	t := &advTaps{}
	a := spec.Adversary
	if s := a.SpoofBye; s != nil {
		t.spoofer = &memnet.ByeSpoofer{
			Device: deviceID, DeviceAddr: deviceAddr,
			Window: window(s.AttackWindow), P: s.P,
			R: net.ForkRNG("adv/spoof-bye"),
		}
		net.AddMiddlebox(t.spoofer)
	}
	if r := a.Replay; r != nil {
		t.replayer = &memnet.Replayer{
			DeviceAddr: deviceAddr,
			Window:     window(r.AttackWindow), P: r.P,
			R: net.ForkRNG("adv/replay"),
		}
		net.AddMiddlebox(t.replayer)
	}
	if bz := a.Byzantine; bz != nil {
		src, err := net.Listen()
		if err != nil {
			return nil, fmt.Errorf("conformance: byzantine source endpoint: %w", err)
		}
		t.byzantine = &memnet.Byzantine{
			Device: deviceID, DeviceAddr: deviceAddr,
			Source: src.LocalAddrPort(),
			Window: window(bz.AttackWindow),
		}
		net.AddMiddlebox(t.byzantine)
	}
	if s := a.Tamper; s != nil {
		t.tamperer = &memnet.Tamperer{
			Device: deviceID, DeviceAddr: deviceAddr,
			Window: window(s.AttackWindow), P: s.P,
			R: net.ForkRNG("adv/tamper"),
		}
		net.AddMiddlebox(t.tamperer)
	}
	if s := a.BitFlip; s != nil {
		t.bitflipper = &memnet.BitFlipper{
			DeviceAddr: deviceAddr,
			Window:     window(s.AttackWindow), P: s.P, FlipBits: s.FlipBits,
			R: net.ForkRNG("adv/bit-flip"),
		}
		net.AddMiddlebox(t.bitflipper)
	}
	if s := a.StripTag; s != nil {
		t.stripper = &memnet.TagStripper{
			DeviceAddr: deviceAddr,
			Window:     window(s.AttackWindow), P: s.P,
			R: net.ForkRNG("adv/strip-tag"),
		}
		net.AddMiddlebox(t.stripper)
	}
	if s := a.Downgrade; s != nil {
		t.downgrader = &memnet.Downgrader{
			Device: deviceID, DeviceAddr: deviceAddr,
			Window: window(s.AttackWindow),
		}
		net.AddMiddlebox(t.downgrader)
	}
	if am := a.Amplify; am != nil {
		victim, err := net.Listen()
		if err != nil {
			return nil, fmt.Errorf("conformance: amplify victim endpoint: %w", err)
		}
		t.victimAddr = victim.LocalAddrPort()
		t.amplifier = &memnet.Amplifier{
			DeviceAddr: deviceAddr,
			VictimID:   victimID, VictimAddr: t.victimAddr,
			Factor: am.Factor,
			Window: window(am.AttackWindow),
		}
		net.AddMiddlebox(t.amplifier)
	}
	return t, nil
}

// RunAdversarial executes one adversarial case: attack-free sim,
// attacked fleet replay, robustness scoring.
func RunAdversarial(c AdvCase, seed uint64) (*AdvResult, error) {
	spec, err := scenario.Resolve(c.Scenario)
	if err != nil {
		return nil, err
	}
	if spec.Adversary == nil {
		return nil, fmt.Errorf("conformance: scenario %s has no adversary section", spec.Name)
	}
	switch {
	case len(spec.CrashAt)+len(spec.ByeAt) != 1:
		return nil, fmt.Errorf("conformance: scenario %s must schedule exactly one crash_at or bye_at", spec.Name)
	case spec.Devices > 1:
		return nil, fmt.Errorf("conformance: scenario %s: multi-device specs not supported", spec.Name)
	}
	cc := Case{Scenario: c.Scenario, Shards: c.Shards, Harden: c.Harden, Auth: c.Auth}
	cc.applyDefaults()

	res := &AdvResult{Scenario: spec.Name, Seed: seed, Harden: c.Harden, Auth: c.Auth}
	sched, simM, err := runSim(spec, seed)
	if err != nil {
		return nil, err
	}
	res.Sim = simM

	out, err := runFleet(spec, sched, cc, seed)
	if err != nil {
		return nil, err
	}
	res.Fleet = out.metrics
	res.Violations = out.violations
	res.TappedPackets = out.tapped
	res.Net = out.net

	a := &res.Adv
	a.PresentAtEvent = out.metrics.PresentAtEvent
	a.FalseAbsent = out.falseAbsent
	a.FalsePresent = out.falsePresent
	a.FilteredFrames = out.net.Filtered
	sum := out.cpCounters // both fleets' shards: a defence fires on whichever side receives the frame
	sum.Add(out.devCounters)
	a.AttemptMismatches = sum.AttemptMismatches
	a.RepliesForged = sum.RepliesForged
	a.ByesForged = sum.ByesForged
	a.RepliesReplayed = sum.RepliesReplayed
	a.ProbesShed = sum.ProbesShed
	a.ByeVerifications = out.proberStats.ByeVerifications
	a.SpoofedByes = out.proberStats.SpoofedByes
	a.AuthVerified = sum.AuthVerified
	a.AuthStaleKey = sum.AuthStaleKey
	a.AuthRejected = sum.AuthRejected
	a.AuthDowngraded = sum.AuthDowngraded
	if tap := out.adv; tap != nil {
		a.InjectedFrames = tap.injected()
		a.VictimReplies = tap.victimReplies.Load()
		if tap.amplifier != nil {
			if forged := tap.amplifier.Injected(); forged > 0 {
				a.AmplificationFactor = float64(a.VictimReplies) / float64(forged)
			}
		}
	}
	if in := out.devCounters.PacketsIn; in > 0 {
		a.ShedRate = float64(a.ProbesShed) / float64(in)
	}

	// The gate: a defended runtime (hardened, authenticated, or both)
	// must issue no false verdict of either kind and break no
	// invariant, no matter the attack. An undefended run is the
	// demonstration that the attack bites — its numbers are reported,
	// not judged.
	res.Pass = !(c.Harden || c.Auth) ||
		(a.FalseAbsent == 0 && a.FalsePresent == 0 && len(res.Violations) == 0)
	return res, nil
}
