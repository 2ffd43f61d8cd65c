package scenario

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// registry maps scenario names to their specs; order holds registration
// order for stable listings.
var (
	registry = make(map[string]*Spec)
	order    []string
)

// Register adds a named scenario. It panics on duplicate names or
// invalid specs — registration happens at init time, where a panic is a
// programming error surfacing immediately.
func Register(s *Spec) {
	if s.Name == "" {
		panic("scenario: registering unnamed spec")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate scenario %q", s.Name))
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: registering %q: %v", s.Name, err))
	}
	registry[s.Name] = s
	order = append(order, s.Name)
}

// ByName returns a deep copy of the named scenario, so callers may
// override horizons or models without disturbing the registry.
func ByName(name string) (*Spec, bool) {
	s, ok := registry[name]
	if !ok {
		return nil, false
	}
	return s.Clone(), true
}

// Names returns the registered scenario names in registration order.
func Names() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// All returns deep copies of every registered scenario in registration
// order.
func All() []*Spec {
	out := make([]*Spec, 0, len(order))
	for _, name := range order {
		out = append(out, registry[name].Clone())
	}
	return out
}

// Resolve returns the scenario for a CLI argument: a registered name
// first, else a path to a JSON file.
func Resolve(nameOrPath string) (*Spec, error) {
	if s, ok := ByName(nameOrPath); ok {
		return s, nil
	}
	if _, err := os.Stat(nameOrPath); err != nil {
		known := Names()
		sort.Strings(known)
		return nil, fmt.Errorf("scenario: %q is neither a registered scenario (%v) nor a readable file",
			nameOrPath, known)
	}
	return Load(nameOrPath)
}

func sec(s float64) Duration { return Duration(s * float64(time.Second)) }

func init() {
	// The paper's two dynamics.
	Register(&Spec{
		Name:        "fig4-mass-leave",
		Description: "Fig. 4: SAPP, 20 CPs join staggered, 18 leave at once at t=1000s",
		Protocol:    "sapp",
		Horizon:     sec(20000),
		Population: Population{MassLeave: &MassLeave{
			CPs: 20, Spread: sec(10), LeaveAt: sec(1000), Remaining: 2,
		}},
		Measure: &Measure{CPSeries: true},
	})
	Register(&Spec{
		Name:        "fig5-uniform-churn",
		Description: "Fig. 5: DCPP under worst-case churn, population ~ U{1..60} redrawn at rate 0.05",
		Protocol:    "dcpp",
		Horizon:     sec(1800),
		Population: Population{UniformChurn: &UniformChurn{
			Min: 1, Max: 60, Rate: 0.05,
		}},
	})

	// The extension workloads the related monitoring literature evaluates
	// under (bursty, session-based and time-varying membership).
	Register(&Spec{
		Name:        "flash-crowd",
		Description: "DCPP under correlated join/leave bursts: cohorts of 15-30 CPs arrive together and leave together",
		Protocol:    "dcpp",
		Horizon:     sec(1800),
		Population: Population{FlashCrowd: &FlashCrowdSpec{
			Base: 5, BaseSpread: sec(10),
			BurstRate: 1.0 / 120, BurstMin: 15, BurstMax: 30,
			DwellMin: sec(60), DwellMax: sec(180),
		}},
	})
	Register(&Spec{
		Name:        "markov-sessions",
		Description: "DCPP with 40 members alternating exponential on/off sessions (mean on 300s, off 600s)",
		Protocol:    "dcpp",
		Horizon:     sec(1800),
		Population: Population{Markov: &MarkovSessionsSpec{
			Members: 40, MeanOn: sec(300), MeanOff: sec(600), StartOn: 0.3,
		}},
	})
	Register(&Spec{
		Name:        "heavy-tail",
		Description: "DCPP with Poisson arrivals and Pareto(1.5) session lengths (min 30s, capped at 1h)",
		Protocol:    "dcpp",
		Horizon:     sec(1800),
		Population: Population{HeavyTail: &HeavyTailSpec{
			ArrivalRate: 0.1, Initial: 10,
			Distribution: "pareto", Shape: 1.5,
			MinLifetime: sec(30), MaxLifetime: sec(3600),
		}},
	})
	Register(&Spec{
		Name:        "diurnal",
		Description: "DCPP with sinusoid-modulated arrivals (10-minute day, amplitude 0.9) and 5-minute sessions",
		Protocol:    "dcpp",
		Horizon:     sec(1800),
		Population: Population{Diurnal: &DiurnalArrivalsSpec{
			BaseRate: 0.05, Amplitude: 0.9, Period: sec(600),
			MeanLifetime: sec(300), Initial: 5,
		}},
	})
	Register(&Spec{
		Name:        "bursty-loss",
		Description: "Fig. 5 churn over a Gilbert-Elliott burst-loss channel (Section 5's loss prediction)",
		Protocol:    "dcpp",
		Horizon:     sec(1800),
		Population: Population{UniformChurn: &UniformChurn{
			Min: 1, Max: 60, Rate: 0.05,
		}},
		Net: &Net{Loss: &Loss{GilbertElliott: &GilbertElliott{
			GoodToBad: 0.02, BadToGood: 0.2, LossGood: 0.01, LossBad: 0.5,
		}}},
	})

	// Conformance-sized scenarios: the same dynamics compressed so a
	// real-time fleet replay finishes in seconds. internal/conformance
	// runs each through both the simulator and the fleet runtime (over
	// internal/memnet) and diffs the outcomes; they are registered so
	// the battery is reproducible from the CLI like any other scenario.
	// Device processing delay is disabled because the fleet's hosted
	// device engines answer synchronously — both runtimes then share
	// one timing model.
	Register(&Spec{
		Name:        "conf-churn",
		Description: "conformance: DCPP under fast uniform churn (pop U{4..12}, redraw ~1.25s), device crash at t=3s",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population: Population{UniformChurn: &UniformChurn{
			Min: 4, Max: 12, Rate: 0.8,
		}},
		Processing: &Processing{Disabled: true},
		CrashAt:    []Duration{sec(3)},
	})
	Register(&Spec{
		Name:        "conf-admin-churn",
		Description: "conformance: the conf-churn dynamics with the fleet-side membership driven through the runtime admin API (HTTP add/remove) instead of direct calls",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population: Population{UniformChurn: &UniformChurn{
			Min: 4, Max: 12, Rate: 0.8,
		}},
		Processing: &Processing{Disabled: true},
		CrashAt:    []Duration{sec(3)},
	})
	Register(&Spec{
		Name:        "conf-auth-churn",
		Description: "conformance: the conf-churn dynamics with frame authentication on (wire v2 AES-128-CMAC tags, Require mode) — signing every frame must move no metric",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population: Population{UniformChurn: &UniformChurn{
			Min: 4, Max: 12, Rate: 0.8,
		}},
		Processing: &Processing{Disabled: true},
		CrashAt:    []Duration{sec(3)},
	})
	Register(&Spec{
		Name:        "conf-bursty-loss",
		Description: "conformance: fast uniform churn over a Gilbert-Elliott burst-loss channel, device crash at t=3s",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population: Population{UniformChurn: &UniformChurn{
			Min: 4, Max: 12, Rate: 0.8,
		}},
		Net: &Net{Loss: &Loss{GilbertElliott: &GilbertElliott{
			GoodToBad: 0.05, BadToGood: 0.3, LossGood: 0.01, LossBad: 0.5,
		}}},
		Processing: &Processing{Disabled: true},
		CrashAt:    []Duration{sec(3)},
	})
	Register(&Spec{
		Name:        "conf-flash-crowd",
		Description: "conformance: correlated join/leave bursts (cohorts of 3-6, ~2s apart), graceful device bye at t=3.5s",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population: Population{FlashCrowd: &FlashCrowdSpec{
			Base: 4, BaseSpread: sec(0.5),
			BurstRate: 0.5, BurstMin: 3, BurstMax: 6,
			DwellMin: sec(1), DwellMax: sec(2),
		}},
		Processing: &Processing{Disabled: true},
		ByeAt:      []Duration{sec(3.5)},
	})

	// Adversarial workloads: conformance-sized benign baselines with an
	// on-path attacker attached. The simulator run stays attack-free (it
	// ignores the adversary section) and serves as the ground truth that
	// internal/conformance diffs the attacked fleet run against for the
	// false-ABSENT / false-PRESENT robustness metrics. Populations are
	// static so the set of CPs whose verdicts are compared is identical
	// across the benign and attacked runs.
	Register(&Spec{
		Name:        "adv-spoofed-bye",
		Description: "adversarial: spoofed BYEs for a live device (p=0.35 per observed probe, window 1.2-2.8s), crash at t=3s",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population:  Population{Static: &Static{CPs: 8, Spread: sec(0.8)}},
		Processing:  &Processing{Disabled: true},
		CrashAt:     []Duration{sec(3)},
		Adversary: &Adversary{SpoofBye: &SpoofByeSpec{
			AttackWindow: AttackWindow{From: sec(1.2), Until: sec(2.8)}, P: 0.35,
		}},
	})
	Register(&Spec{
		Name:        "adv-replay",
		Description: "adversarial: captured replies replayed into later cycles (p=0.5, window 1-2.8s), crash at t=3s",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population:  Population{Static: &Static{CPs: 8, Spread: sec(0.8)}},
		Processing:  &Processing{Disabled: true},
		CrashAt:     []Duration{sec(3)},
		Adversary: &Adversary{Replay: &ReplaySpec{
			AttackWindow: AttackWindow{From: sec(1), Until: sec(2.8)}, P: 0.5,
		}},
	})
	Register(&Spec{
		Name:        "adv-byzantine",
		Description: "adversarial: Byzantine responder answers for the device from the crash at t=3s onward",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population:  Population{Static: &Static{CPs: 8, Spread: sec(0.8)}},
		Processing:  &Processing{Disabled: true},
		CrashAt:     []Duration{sec(3)},
		Adversary: &Adversary{Byzantine: &ByzantineSpec{
			AttackWindow: AttackWindow{From: sec(3)},
		}},
	})
	// The amplifier doubles as a DCPP queue-poisoning attack: every
	// forged probe the device answers claims a 0.1s probe slot, pushing
	// every honest CP's dictated wait past the horizon. The longer
	// horizon gives a hardened run (which sheds the flood down to the
	// admission rate) room to detect the crash on schedule, while the
	// unhardened queue stays poisoned for minutes.
	Register(&Spec{
		Name:        "adv-amplify",
		Description: "adversarial: device reflects 30 forged probes per honest probe at a bystander victim (window 1-3s), crash at t=3s",
		Protocol:    "dcpp",
		Horizon:     sec(10),
		Population:  Population{Static: &Static{CPs: 6, Spread: sec(0.8)}},
		Processing:  &Processing{Disabled: true},
		CrashAt:     []Duration{sec(3)},
		Adversary: &Adversary{Amplify: &AmplifySpec{
			AttackWindow: AttackWindow{From: sec(1), Until: sec(3)}, Factor: 30,
		}},
	})

	// Authenticated-wire adversaries: attackers that start from observed
	// traffic rather than forging from whole cloth — tampering, random
	// corruption, tag stripping and protocol downgrade. All four inject
	// copies and pass the original frames through, so the benign traffic
	// is untouched and any false verdict in an attacked run means a
	// forged frame was ACCEPTED — the zero-tolerance property the
	// conformance harness gates with frame authentication on.
	Register(&Spec{
		Name:        "adv-auth-tamper",
		Description: "adversarial: device replies rewritten into BYEs in transit (p=0.5, window 1-2.8s), crash at t=3s",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population:  Population{Static: &Static{CPs: 8, Spread: sec(0.8)}},
		Processing:  &Processing{Disabled: true},
		CrashAt:     []Duration{sec(3)},
		Adversary: &Adversary{Tamper: &TamperSpec{
			AttackWindow: AttackWindow{From: sec(1), Until: sec(2.8)}, P: 0.5,
		}},
	})
	Register(&Spec{
		Name:        "adv-auth-bitflip",
		Description: "adversarial: corrupted copies of device-link frames injected (p=0.35, 1 bit flip, window 1-2.8s), crash at t=3s",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population:  Population{Static: &Static{CPs: 8, Spread: sec(0.8)}},
		Processing:  &Processing{Disabled: true},
		CrashAt:     []Duration{sec(3)},
		Adversary: &Adversary{BitFlip: &BitFlipSpec{
			AttackWindow: AttackWindow{From: sec(1), Until: sec(2.8)}, P: 0.35,
		}},
	})
	Register(&Spec{
		Name:        "adv-auth-strip",
		Description: "adversarial: observed v2 frames re-encoded as valid v1 in transit (p=0.6, window 1-2.8s), crash at t=3s",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population:  Population{Static: &Static{CPs: 8, Spread: sec(0.8)}},
		Processing:  &Processing{Disabled: true},
		CrashAt:     []Duration{sec(3)},
		Adversary: &Adversary{StripTag: &StripTagSpec{
			AttackWindow: AttackWindow{From: sec(1), Until: sec(2.8)}, P: 0.6,
		}},
	})
	Register(&Spec{
		Name:        "adv-auth-downgrade",
		Description: "adversarial: v1 replies forged from the device's own address from the crash at t=3s onward",
		Protocol:    "dcpp",
		Horizon:     sec(5),
		Population:  Population{Static: &Static{CPs: 8, Spread: sec(0.8)}},
		Processing:  &Processing{Disabled: true},
		CrashAt:     []Duration{sec(3)},
		Adversary: &Adversary{Downgrade: &DowngradeSpec{
			AttackWindow: AttackWindow{From: sec(3)},
		}},
	})
}
