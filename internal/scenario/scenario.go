// Package scenario is the declarative scenario engine: a Spec names a
// protocol, a population model, the network's loss/delay models, the
// device's processing model and a horizon, and compiles into a
// simrun.Config plus the scheduled drivers that realise it. Specs
// round-trip through JSON — encode→decode→encode is a fixed point — so
// scenarios live in files and in a registry of named, built-in scenarios
// (the paper's Fig. 4 and Fig. 5 dynamics plus the extension workloads).
//
// Compilation is conservative by construction: the paper scenarios
// compile to the exact RNG fork labels and draw order the historical
// hand-written world construction used, so for a fixed seed a Spec-built
// world replays the same event stream bit for bit.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"presence/internal/core/discovery"
	"presence/internal/core/protocol"
	"presence/internal/simnet"
	"presence/internal/simrun"
)

// Duration is a time.Duration that encodes to JSON as a Go duration
// string ("20s", "1m30s") — canonical, so round-trips are fixed points.
type Duration time.Duration

// Dur wraps a time.Duration.
func Dur(d time.Duration) Duration { return Duration(d) }

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"20s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	*d = Duration(v)
	return nil
}

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario (registry key, CLI argument).
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`
	// Protocol selects sapp, dcpp or naive.
	Protocol protocol.Name `json:"protocol"`
	// Devices is the device count (0 = 1, the paper's setting).
	Devices int `json:"devices,omitempty"`
	// Horizon is the simulated run length.
	Horizon Duration `json:"horizon"`
	// Population selects exactly one membership dynamic.
	Population Population `json:"population"`
	// Net overrides the network models (nil = paper network).
	Net *Net `json:"net,omitempty"`
	// Processing overrides the device computation-time model.
	Processing *Processing `json:"processing,omitempty"`
	// NaivePeriod is the naive baseline's fixed probe period (0 = 1 s).
	NaivePeriod Duration `json:"naive_period,omitempty"`
	// Overlay attaches the leave-dissemination overlay to every CP.
	Overlay bool `json:"overlay,omitempty"`
	// Discovery enables the UPnP-style announcement layer.
	Discovery *Discovery `json:"discovery,omitempty"`
	// Measure configures the per-CP series recording.
	Measure *Measure `json:"measure,omitempty"`
	// CrashAt silently kills the primary device at these times.
	CrashAt []Duration `json:"crash_at,omitempty"`
	// ByeAt makes the primary device leave gracefully at these times.
	ByeAt []Duration `json:"bye_at,omitempty"`
	// Adversary attaches deterministic on-path attackers (nil = benign).
	Adversary *Adversary `json:"adversary,omitempty"`
}

// Adversary describes the on-path attackers of an adv-* scenario. The
// simulator ignores this section — the simulated run of a Spec is by
// definition the attack-free baseline that the robustness metrics diff
// against; internal/conformance compiles it into internal/memnet
// middleboxes when it drives the real shard runtime over the in-memory
// network. Any combination of members may be active; each draws its
// randomness from a stream forked off the run seed, so for a fixed
// seed the attack is replayed bit for bit.
type Adversary struct {
	// SpoofBye injects BYE frames for the live primary device,
	// source-spoofed as the device.
	SpoofBye *SpoofByeSpec `json:"spoof_bye,omitempty"`
	// Replay captures the device's replies and replays them verbatim
	// into later probe cycles.
	Replay *ReplaySpec `json:"replay,omitempty"`
	// Byzantine answers probes on behalf of the (crashed) device with
	// well-formed forged replies from the attacker's own address.
	Byzantine *ByzantineSpec `json:"byzantine,omitempty"`
	// Amplify reflects forged probes off the device toward a bystander
	// victim address.
	Amplify *AmplifySpec `json:"amplify,omitempty"`
	// Tamper rewrites observed device replies into BYE frames in
	// transit, keeping the observed wire version (v2 rewrites carry the
	// observed, now-stale tag).
	Tamper *TamperSpec `json:"tamper,omitempty"`
	// BitFlip injects copies of observed frames with random bits
	// flipped — line noise and low-effort corruption.
	BitFlip *BitFlipSpec `json:"bit_flip,omitempty"`
	// StripTag re-encodes observed v2 frames as valid v1 frames (tag
	// removed, CRC computed) — downgrade-in-transit.
	StripTag *StripTagSpec `json:"strip_tag,omitempty"`
	// Downgrade answers probes for the crashed device with well-formed
	// v1 replies spoofed from the device's own address.
	Downgrade *DowngradeSpec `json:"downgrade,omitempty"`
}

// AttackWindow bounds when an attacker acts: [From, Until), with
// Until = 0 meaning until the horizon.
type AttackWindow struct {
	From  Duration `json:"from,omitempty"`
	Until Duration `json:"until,omitempty"`
}

func (w AttackWindow) validate(kind string) error {
	if w.From < 0 {
		return fmt.Errorf("scenario: %s window start %v negative", kind, w.From.Std())
	}
	if w.Until != 0 && w.Until <= w.From {
		return fmt.Errorf("scenario: %s window [%v, %v) empty", kind, w.From.Std(), w.Until.Std())
	}
	return nil
}

// SpoofByeSpec parameterises the BYE spoofer: P is the per-observed-
// probe injection probability.
type SpoofByeSpec struct {
	AttackWindow
	P float64 `json:"p"`
}

// ReplaySpec parameterises the reply replayer: P is the per-observed-
// probe replay probability.
type ReplaySpec struct {
	AttackWindow
	P float64 `json:"p"`
}

// ByzantineSpec parameterises the answering-for-the-dead attacker;
// open the window at the device's crash instant.
type ByzantineSpec struct {
	AttackWindow
}

// AmplifySpec parameterises the reflection attacker: Factor forged
// probes per observed honest probe (0 = 8).
type AmplifySpec struct {
	AttackWindow
	Factor int `json:"factor,omitempty"`
}

// TamperSpec parameterises the in-transit reply-to-BYE rewriter: P is
// the per-observed-reply tamper probability.
type TamperSpec struct {
	AttackWindow
	P float64 `json:"p"`
}

// BitFlipSpec parameterises the frame corrupter: P is the
// per-observed-frame injection probability, FlipBits the flips per
// corrupted copy (0 = 1).
type BitFlipSpec struct {
	AttackWindow
	P        float64 `json:"p"`
	FlipBits int     `json:"flip_bits,omitempty"`
}

// StripTagSpec parameterises the downgrade-in-transit attacker: P is
// the per-observed-v2-frame strip probability.
type StripTagSpec struct {
	AttackWindow
	P float64 `json:"p"`
}

// DowngradeSpec parameterises the v1 answering-for-the-dead attacker;
// open the window at the device's crash instant.
type DowngradeSpec struct {
	AttackWindow
}

func (a *Adversary) validate() error {
	none := true
	if s := a.SpoofBye; s != nil {
		none = false
		if err := s.validate("spoof_bye"); err != nil {
			return err
		}
		if s.P <= 0 || s.P > 1 {
			return fmt.Errorf("scenario: spoof_bye p %g outside (0,1]", s.P)
		}
	}
	if r := a.Replay; r != nil {
		none = false
		if err := r.validate("replay"); err != nil {
			return err
		}
		if r.P <= 0 || r.P > 1 {
			return fmt.Errorf("scenario: replay p %g outside (0,1]", r.P)
		}
	}
	if b := a.Byzantine; b != nil {
		none = false
		if err := b.validate("byzantine"); err != nil {
			return err
		}
	}
	if m := a.Amplify; m != nil {
		none = false
		if err := m.validate("amplify"); err != nil {
			return err
		}
		if m.Factor < 0 {
			return fmt.Errorf("scenario: amplify factor %d negative", m.Factor)
		}
	}
	if s := a.Tamper; s != nil {
		none = false
		if err := s.validate("tamper"); err != nil {
			return err
		}
		if s.P <= 0 || s.P > 1 {
			return fmt.Errorf("scenario: tamper p %g outside (0,1]", s.P)
		}
	}
	if s := a.BitFlip; s != nil {
		none = false
		if err := s.validate("bit_flip"); err != nil {
			return err
		}
		if s.P <= 0 || s.P > 1 {
			return fmt.Errorf("scenario: bit_flip p %g outside (0,1]", s.P)
		}
		if s.FlipBits < 0 {
			return fmt.Errorf("scenario: bit_flip flip_bits %d negative", s.FlipBits)
		}
	}
	if s := a.StripTag; s != nil {
		none = false
		if err := s.validate("strip_tag"); err != nil {
			return err
		}
		if s.P <= 0 || s.P > 1 {
			return fmt.Errorf("scenario: strip_tag p %g outside (0,1]", s.P)
		}
	}
	if s := a.Downgrade; s != nil {
		none = false
		if err := s.validate("downgrade"); err != nil {
			return err
		}
	}
	if none {
		return fmt.Errorf("scenario: adversary selects no attacker")
	}
	return nil
}

// Population is a tagged union: exactly one member must be set.
type Population struct {
	Static       *Static              `json:"static,omitempty"`
	MassLeave    *MassLeave           `json:"mass_leave,omitempty"`
	UniformChurn *UniformChurn        `json:"uniform_churn,omitempty"`
	FlashCrowd   *FlashCrowdSpec      `json:"flash_crowd,omitempty"`
	Markov       *MarkovSessionsSpec  `json:"markov_sessions,omitempty"`
	HeavyTail    *HeavyTailSpec       `json:"heavy_tail,omitempty"`
	Diurnal      *DiurnalArrivalsSpec `json:"diurnal,omitempty"`
}

// Static is a fixed population joined staggered over a spread.
type Static struct {
	CPs    int      `json:"cps"`
	Spread Duration `json:"spread,omitempty"`
}

// MassLeave is the Fig. 4 dynamic.
type MassLeave struct {
	CPs       int      `json:"cps"`
	Spread    Duration `json:"spread,omitempty"`
	LeaveAt   Duration `json:"leave_at"`
	Remaining int      `json:"remaining"`
}

// UniformChurn is the Fig. 5 dynamic.
type UniformChurn struct {
	Min  int     `json:"min"`
	Max  int     `json:"max"`
	Rate float64 `json:"rate"`
}

// FlashCrowdSpec models correlated join/leave bursts.
type FlashCrowdSpec struct {
	Base       int      `json:"base,omitempty"`
	BaseSpread Duration `json:"base_spread,omitempty"`
	BurstRate  float64  `json:"burst_rate"`
	BurstMin   int      `json:"burst_min"`
	BurstMax   int      `json:"burst_max"`
	DwellMin   Duration `json:"dwell_min,omitempty"`
	DwellMax   Duration `json:"dwell_max"`
}

// MarkovSessionsSpec models per-CP Markov on/off sessions.
type MarkovSessionsSpec struct {
	Members int      `json:"members"`
	MeanOn  Duration `json:"mean_on"`
	MeanOff Duration `json:"mean_off"`
	StartOn float64  `json:"start_on,omitempty"`
}

// HeavyTailSpec models Poisson arrivals with heavy-tailed lifetimes.
type HeavyTailSpec struct {
	ArrivalRate  float64  `json:"arrival_rate"`
	Initial      int      `json:"initial,omitempty"`
	Distribution string   `json:"distribution"`
	Shape        float64  `json:"shape,omitempty"`
	MinLifetime  Duration `json:"min_lifetime,omitempty"`
	Mu           float64  `json:"mu,omitempty"`
	Sigma        float64  `json:"sigma,omitempty"`
	MaxLifetime  Duration `json:"max_lifetime,omitempty"`
}

// DiurnalArrivalsSpec models sinusoid-modulated Poisson arrivals.
type DiurnalArrivalsSpec struct {
	BaseRate     float64  `json:"base_rate"`
	Amplitude    float64  `json:"amplitude"`
	Period       Duration `json:"period"`
	Phase        float64  `json:"phase,omitempty"`
	MeanLifetime Duration `json:"mean_lifetime"`
	Initial      int      `json:"initial,omitempty"`
}

// Model compiles the union into the selected simrun population model.
func (p *Population) Model() (simrun.PopulationModel, error) {
	var (
		models []simrun.PopulationModel
		names  []string
	)
	if p.Static != nil {
		models = append(models, simrun.StaticPopulation{
			CPs: p.Static.CPs, Spread: p.Static.Spread.Std(),
		})
		names = append(names, "static")
	}
	if p.MassLeave != nil {
		models = append(models, simrun.MassLeavePopulation{
			CPs: p.MassLeave.CPs, Spread: p.MassLeave.Spread.Std(),
			LeaveAt: p.MassLeave.LeaveAt.Std(), Remaining: p.MassLeave.Remaining,
		})
		names = append(names, "mass_leave")
	}
	if p.UniformChurn != nil {
		models = append(models, simrun.UniformChurn{
			Min: p.UniformChurn.Min, Max: p.UniformChurn.Max, Rate: p.UniformChurn.Rate,
		})
		names = append(names, "uniform_churn")
	}
	if p.FlashCrowd != nil {
		models = append(models, simrun.FlashCrowd{
			Base: p.FlashCrowd.Base, BaseSpread: p.FlashCrowd.BaseSpread.Std(),
			BurstRate: p.FlashCrowd.BurstRate,
			BurstMin:  p.FlashCrowd.BurstMin, BurstMax: p.FlashCrowd.BurstMax,
			DwellMin: p.FlashCrowd.DwellMin.Std(), DwellMax: p.FlashCrowd.DwellMax.Std(),
		})
		names = append(names, "flash_crowd")
	}
	if p.Markov != nil {
		models = append(models, simrun.MarkovSessions{
			Members: p.Markov.Members,
			MeanOn:  p.Markov.MeanOn.Std(), MeanOff: p.Markov.MeanOff.Std(),
			StartOn: p.Markov.StartOn,
		})
		names = append(names, "markov_sessions")
	}
	if p.HeavyTail != nil {
		models = append(models, simrun.HeavyTailLifetimes{
			ArrivalRate: p.HeavyTail.ArrivalRate, Initial: p.HeavyTail.Initial,
			Distribution: p.HeavyTail.Distribution,
			Shape:        p.HeavyTail.Shape, MinLifetime: p.HeavyTail.MinLifetime.Std(),
			Mu: p.HeavyTail.Mu, Sigma: p.HeavyTail.Sigma,
			MaxLifetime: p.HeavyTail.MaxLifetime.Std(),
		})
		names = append(names, "heavy_tail")
	}
	if p.Diurnal != nil {
		models = append(models, simrun.DiurnalArrivals{
			BaseRate: p.Diurnal.BaseRate, Amplitude: p.Diurnal.Amplitude,
			Period: p.Diurnal.Period.Std(), Phase: p.Diurnal.Phase,
			MeanLifetime: p.Diurnal.MeanLifetime.Std(), Initial: p.Diurnal.Initial,
		})
		names = append(names, "diurnal")
	}
	switch len(models) {
	case 1:
		return models[0], nil
	case 0:
		return nil, fmt.Errorf("scenario: population selects no model")
	default:
		return nil, fmt.Errorf("scenario: population selects %s — exactly one model allowed",
			strings.Join(names, " and "))
	}
}

// Net overrides the simulated network models.
type Net struct {
	Delay      *Delay  `json:"delay,omitempty"`
	Loss       *Loss   `json:"loss,omitempty"`
	BufferCap  int     `json:"buffer_cap,omitempty"`
	DuplicateP float64 `json:"duplicate_p,omitempty"`
}

// Delay is a one-of union of delay models (nil members unset; all nil is
// invalid — omit Delay entirely for the paper's three-mode model).
type Delay struct {
	Modes       []Duration     `json:"modes,omitempty"`
	Constant    *Duration      `json:"constant,omitempty"`
	Uniform     *UniformWindow `json:"uniform,omitempty"`
	Exponential *ExpDelay      `json:"exponential,omitempty"`
}

// UniformWindow bounds a uniform delay draw.
type UniformWindow struct {
	Lo Duration `json:"lo"`
	Hi Duration `json:"hi"`
}

// ExpDelay parameterises an exponential delay.
type ExpDelay struct {
	Mean Duration `json:"mean"`
	Cap  Duration `json:"cap,omitempty"`
}

func (d *Delay) model() (simnet.DelayModel, error) {
	set := 0
	var m simnet.DelayModel
	if len(d.Modes) > 0 {
		modes := make(simnet.Modes, len(d.Modes))
		for i, v := range d.Modes {
			modes[i] = v.Std()
		}
		m, set = modes, set+1
	}
	if d.Constant != nil {
		m, set = simnet.Constant(d.Constant.Std()), set+1
	}
	if d.Uniform != nil {
		m, set = simnet.UniformDelay{Lo: d.Uniform.Lo.Std(), Hi: d.Uniform.Hi.Std()}, set+1
	}
	if d.Exponential != nil {
		m, set = simnet.ExponentialDelay{Mean: d.Exponential.Mean.Std(), Cap: d.Exponential.Cap.Std()}, set+1
	}
	if set != 1 {
		return nil, fmt.Errorf("scenario: delay must select exactly one model, %d set", set)
	}
	return m, nil
}

// Loss is a one-of union of loss models.
type Loss struct {
	// Bernoulli drops each message independently with this probability.
	Bernoulli *float64 `json:"bernoulli,omitempty"`
	// GilbertElliott is the two-state burst-loss channel.
	GilbertElliott *GilbertElliott `json:"gilbert_elliott,omitempty"`
}

// GilbertElliott mirrors simnet.GilbertElliott.
type GilbertElliott struct {
	GoodToBad float64 `json:"good_to_bad"`
	BadToGood float64 `json:"bad_to_good"`
	LossGood  float64 `json:"loss_good,omitempty"`
	LossBad   float64 `json:"loss_bad"`
}

// model returns a freshly constructed loss model — Gilbert–Elliott is
// stateful, so every compiled world needs its own instance.
func (l *Loss) model() (simnet.LossModel, error) {
	switch {
	case l.Bernoulli != nil && l.GilbertElliott != nil:
		return nil, fmt.Errorf("scenario: loss selects both bernoulli and gilbert_elliott")
	case l.Bernoulli != nil:
		if p := *l.Bernoulli; p < 0 || p > 1 {
			return nil, fmt.Errorf("scenario: bernoulli loss %g outside [0,1]", p)
		}
		return simnet.Bernoulli{P: *l.Bernoulli}, nil
	case l.GilbertElliott != nil:
		ge := &simnet.GilbertElliott{
			GoodToBad: l.GilbertElliott.GoodToBad, BadToGood: l.GilbertElliott.BadToGood,
			LossGood: l.GilbertElliott.LossGood, LossBad: l.GilbertElliott.LossBad,
		}
		if err := ge.Validate(); err != nil {
			return nil, err
		}
		return ge, nil
	default:
		return nil, fmt.Errorf("scenario: loss selects no model")
	}
}

// Processing mirrors simrun.ProcessingConfig.
type Processing struct {
	Disabled bool     `json:"disabled,omitempty"`
	Min      Duration `json:"min,omitempty"`
	Max      Duration `json:"max,omitempty"`
}

// Discovery mirrors simrun.DiscoveryConfig; its presence enables the
// layer.
type Discovery struct {
	MaxAge           Duration `json:"max_age,omitempty"`
	Period           Duration `json:"period,omitempty"`
	Sweep            Duration `json:"sweep,omitempty"`
	ProbeOnDiscovery bool     `json:"probe_on_discovery,omitempty"`
}

// Measure configures series recording.
type Measure struct {
	CPSeries   bool     `json:"cp_series,omitempty"`
	WindowFrom Duration `json:"window_from,omitempty"`
	WindowTo   Duration `json:"window_to,omitempty"`
	Decimate   int      `json:"decimate,omitempty"`
	LoadBin    Duration `json:"load_bin,omitempty"`
}

// Validate checks the Spec without building anything.
func (s *Spec) Validate() error {
	if !s.Protocol.Valid() {
		return fmt.Errorf("scenario: unknown protocol %q", s.Protocol)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("scenario: horizon %v must be positive", s.Horizon.Std())
	}
	m, err := s.Population.Model()
	if err != nil {
		return err
	}
	if v, ok := m.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if s.Net != nil {
		if s.Net.Delay != nil {
			if _, err := s.Net.Delay.model(); err != nil {
				return err
			}
		}
		if s.Net.Loss != nil {
			if _, err := s.Net.Loss.model(); err != nil {
				return err
			}
		}
		if s.Net.BufferCap < 0 {
			return fmt.Errorf("scenario: negative buffer cap %d", s.Net.BufferCap)
		}
		if s.Net.DuplicateP < 0 || s.Net.DuplicateP > 1 {
			return fmt.Errorf("scenario: duplicate probability %g outside [0,1]", s.Net.DuplicateP)
		}
	}
	for _, at := range s.CrashAt {
		if at < 0 {
			return fmt.Errorf("scenario: negative crash time %v", at.Std())
		}
	}
	for _, at := range s.ByeAt {
		if at < 0 {
			return fmt.Errorf("scenario: negative bye time %v", at.Std())
		}
	}
	if s.Adversary != nil {
		if err := s.Adversary.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Config compiles the Spec into a simrun.Config for the given seed.
// Every call constructs fresh model instances, so configs for parallel
// replications never share state.
func (s *Spec) Config(seed uint64) (simrun.Config, error) {
	if err := s.Validate(); err != nil {
		return simrun.Config{}, err
	}
	cfg := simrun.Config{
		Protocol: s.Protocol,
		Seed:     seed,
		Devices:  s.Devices,
		Params:   protocol.Params{NaivePeriod: s.NaivePeriod.Std()},
	}
	cfg.EnableOverlay = s.Overlay
	if s.Net != nil {
		if s.Net.Delay != nil {
			m, err := s.Net.Delay.model()
			if err != nil {
				return simrun.Config{}, err
			}
			cfg.Net.Delay = m
		}
		if s.Net.Loss != nil {
			m, err := s.Net.Loss.model()
			if err != nil {
				return simrun.Config{}, err
			}
			cfg.Net.Loss = m
		}
		cfg.Net.BufferCap = s.Net.BufferCap
		cfg.Net.DuplicateP = s.Net.DuplicateP
	}
	if s.Processing != nil {
		cfg.Processing = simrun.ProcessingConfig{
			Disabled: s.Processing.Disabled,
			Min:      s.Processing.Min.Std(),
			Max:      s.Processing.Max.Std(),
		}
	}
	if s.Discovery != nil {
		cfg.Discovery = simrun.DiscoveryConfig{
			Enabled: true,
			Announce: discovery.AnnouncerConfig{
				MaxAge: s.Discovery.MaxAge.Std(),
				Period: s.Discovery.Period.Std(),
			},
			Sweep:            s.Discovery.Sweep.Std(),
			ProbeOnDiscovery: s.Discovery.ProbeOnDiscovery,
		}
	}
	if s.Measure != nil {
		cfg.RecordCPSeries = s.Measure.CPSeries
		cfg.SeriesWindow.From = s.Measure.WindowFrom.Std()
		cfg.SeriesWindow.To = s.Measure.WindowTo.Std()
		cfg.SeriesDecimate = s.Measure.Decimate
		cfg.LoadBin = s.Measure.LoadBin.Std()
	}
	return cfg, nil
}

// Populate installs the Spec's population model and device events on a
// world built from this Spec's Config (or a caller-tweaked variant).
func (s *Spec) Populate(w *simrun.World) error {
	m, err := s.Population.Model()
	if err != nil {
		return err
	}
	if err := w.StartPopulation(m); err != nil {
		return err
	}
	for _, at := range s.CrashAt {
		w.ScheduleDeviceCrash(at.Std())
	}
	for _, at := range s.ByeAt {
		w.ScheduleDeviceBye(at.Std())
	}
	return nil
}

// World compiles the Spec and builds the populated world for the seed.
// Run it with w.Run(spec.Horizon.Std()).
func (s *Spec) World(seed uint64) (*simrun.World, error) {
	cfg, err := s.Config(seed)
	if err != nil {
		return nil, err
	}
	w, err := simrun.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Populate(w); err != nil {
		return nil, err
	}
	return w, nil
}

// Clone returns a deep copy (Specs from the registry are shared; clone
// before overriding horizons or models).
func (s *Spec) Clone() *Spec {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: clone marshal: %v", err))
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		panic(fmt.Sprintf("scenario: clone unmarshal: %v", err))
	}
	return &out
}

// Encode renders the Spec as canonical, indented JSON (a trailing
// newline included, so files are POSIX text files).
func (s *Spec) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses and validates a JSON Spec.
func Decode(b []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads a Spec from a JSON file.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}
