package fleet

// Unit tests for the runtime administration plane: id-addressed
// removal, the bounded command inbox, live configuration, the
// per-device probe budget, and drain/rebalance migration. The churn
// soak and drain-equivalence batteries live in the external test
// package (churn_soak_test.go, drain_equiv_test.go); this file pins
// the mechanism-level contracts those scenarios build on.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/ident"
)

func TestAdminGatesOnStart(t *testing.T) {
	f, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.DrainShard(0); err == nil {
		t.Error("DrainShard before Start accepted")
	}
	if _, err := f.Rebalance(); err == nil {
		t.Error("Rebalance before Start accepted")
	}
	if err := f.RemoveDevice(1); err == nil {
		t.Error("RemoveDevice of unknown device accepted")
	}
	if err := f.RemoveControlPoint(1); err == nil {
		t.Error("RemoveControlPoint of unknown CP accepted")
	}
	// Live config, by contrast, is valid before Start: it is how a
	// caller tunes a fleet between New and Start.
	if _, ver := f.ConfigSnapshot(); ver != 1 {
		t.Errorf("initial config version = %d, want 1", ver)
	}
	if ver, err := f.SetConfig(RuntimeConfig{Harden: true}); err != nil || ver != 2 {
		t.Errorf("SetConfig before Start = (%d, %v), want (2, nil)", ver, err)
	}
}

func TestRemoveControlPointByID(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	cp := addDCPPCP(t, f, 70, 1, dev.Addr().String(), nil)
	waitFor(t, 3*time.Second, "a cycle", func() bool { return cp.Stats().CyclesOK >= 1 })

	if err := f.RemoveControlPoint(99); err == nil {
		t.Fatal("removing an unhosted id accepted")
	}
	if err := f.RemoveControlPoint(70); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot().Total
	if snap.ControlPoints != 0 || snap.LiveControlPoints != 0 || snap.PendingProbes != 0 {
		t.Fatalf("gauges after id-addressed remove: %+v", snap)
	}
	if err := f.RemoveControlPoint(70); err == nil {
		t.Fatal("double remove by id accepted")
	}
	// The id is free again, and the handle path still composes.
	cp2 := addDCPPCP(t, f, 70, 1, dev.Addr().String(), nil)
	waitFor(t, 3*time.Second, "re-added CP cycle", func() bool { return cp2.Stats().CyclesOK >= 1 })
	cp2.Remove()
}

// TestAdmissionQueueBound pins the overload contract of the command
// inbox: with the shard loop wedged (it runs a command that blocks
// until the test releases it, so the loop cannot drain), commands
// beyond RuntimeConfig.AdmissionQueue are refused with
// ErrAdmissionRejected, the counter advances, and the refused mutation
// leaves no trace once the loop resumes.
func TestAdmissionQueueBound(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2, RuntimeConfig: RuntimeConfig{AdmissionQueue: 1}})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	cp := addDCPPCP(t, f, 70, 1, dev.Addr().String(), nil)
	s := f.shards[cp.Shard()]

	wedged, release := make(chan struct{}), make(chan struct{})
	go s.runOn(false, func(*shard) error { //nolint:errcheck // the wedge only blocks
		close(wedged)
		<-release
		return nil
	})
	<-wedged
	// Fill the single inbox slot with an inert command...
	if !s.cmd.put(shardCommand{fn: func(*shard) error { return nil }}, 1) {
		close(release)
		t.Fatal("the inert command was refused by an empty inbox")
	}
	// ...so the public mutation API must now back-pressure.
	err := f.RemoveControlPoint(70)
	close(release)
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("RemoveControlPoint against a full inbox = %v, want ErrAdmissionRejected", err)
	}

	waitFor(t, 3*time.Second, "queued command drained", func() bool {
		return f.Snapshot().Total.AdmissionRejected >= 1 && !s.cmd.pending.Load()
	})
	if n := f.Snapshot().Total.ControlPoints; n != 1 {
		t.Fatalf("rejected remove mutated the fleet: %d CPs hosted", n)
	}
	// With the loop running again the same call goes through.
	if err := f.RemoveControlPoint(70); err != nil {
		t.Fatal(err)
	}
}

// TestStartupConfigIsRuntimeConfig pins that the RuntimeConfig embedded
// in Config is the one spelling of every live setting: New either fails
// with the error SetConfig gives for the same value, or starts at
// version 1 with exactly the config SetConfig would install.
func TestStartupConfigIsRuntimeConfig(t *testing.T) {
	ref, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for name, rc := range map[string]RuntimeConfig{
		"zero":                      {},
		"harden-with-device-budget": {Harden: true, PerDeviceProbeHz: 5, PerDeviceBurst: 3},
		"auth":                      {AuthKey: []byte("startup-master"), AuthRequire: true, AuthRotationGrace: 7 * time.Second},
		"negative-pending-ttl":      {PendingTTL: -time.Second},
		"require-without-key":       {AuthRequire: true},
	} {
		t.Run(name, func(t *testing.T) {
			_, setErr := ref.SetConfig(rc)
			want, _ := ref.ConfigSnapshot()
			f, newErr := New(Config{Shards: 1, RuntimeConfig: rc})
			if setErr != nil || newErr != nil {
				if setErr == nil || newErr == nil || newErr.Error() != setErr.Error() {
					t.Fatalf("New error %v, SetConfig error %v: want the same", newErr, setErr)
				}
				return
			}
			defer f.Close()
			if got, ver := f.ConfigSnapshot(); ver != 1 || !reflect.DeepEqual(got, want) {
				t.Fatalf("New installed version %d %+v, SetConfig installs %+v", ver, got, want)
			}
		})
	}
}

func TestSetConfigVersioning(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	rc, ver := f.ConfigSnapshot()
	if ver != 1 {
		t.Fatalf("startup config version = %d, want 1", ver)
	}
	if rc.PendingTTL != 30*time.Second || rc.AdmissionQueue != defaultAdmissionQueue {
		t.Fatalf("startup defaults not applied: %+v", rc)
	}
	if _, err := f.SetConfig(RuntimeConfig{PerDeviceProbeHz: -1}); err == nil {
		t.Fatal("negative probe rate accepted")
	}
	if _, ver := f.ConfigSnapshot(); ver != 1 {
		t.Fatalf("rejected config bumped the version to %d", ver)
	}
	v2, err := f.SetConfig(RuntimeConfig{Harden: true, PerDeviceProbeHz: 5})
	if err != nil || v2 != 2 {
		t.Fatalf("SetConfig = (%d, %v), want (2, nil)", v2, err)
	}
	rc, ver = f.ConfigSnapshot()
	if ver != 2 || !rc.Harden || rc.PerDeviceProbeHz != 5 || rc.PerDeviceBurst != 16 {
		t.Fatalf("snapshot after push: ver=%d cfg=%+v", ver, rc)
	}
	// Every shard picked up the push (runOn round-trips through each
	// loop, so by the time SetConfig returns the tables must exist).
	for i, s := range f.shards {
		var harden, budget bool
		s.runOn(false, func(s *shard) error { //nolint:errcheck // open fleet
			harden, budget = s.rt.Harden, s.devBudget != nil
			return nil
		})
		if !harden || !budget {
			t.Fatalf("shard %d missed the config push: harden=%v budget=%v", i, harden, budget)
		}
	}
	// Turning the knobs back off drops the optional tables.
	if _, err := f.SetConfig(RuntimeConfig{}); err != nil {
		t.Fatal(err)
	}
	for i, s := range f.shards {
		var leaked bool
		s.runOn(false, func(s *shard) error { //nolint:errcheck // open fleet
			leaked = s.devBudget != nil || s.completed != nil || s.sources != nil
			return nil
		})
		if leaked {
			t.Fatalf("shard %d kept optional tables after config rollback", i)
		}
	}
}

// TestPerDeviceProbeBudget points a herd of fast control points at one
// device with a 1 Hz / burst-1 budget: the first probe goes through,
// the rest of the herd is shed before the wire (Counters.ProbesShed)
// and each shed cycle behaves exactly like a lost probe — the CPs sit
// in their retransmit wait instead of declaring anything.
func TestPerDeviceProbeBudget(t *testing.T) {
	f := startedFleet(t, Config{Shards: 1, RuntimeConfig: RuntimeConfig{PerDeviceProbeHz: 1, PerDeviceBurst: 1}})
	dev, err := f.AddDevice(1, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(1, env)
	})
	if err != nil {
		t.Fatal(err)
	}
	lst := &countingListener{}
	for i := 0; i < 8; i++ {
		policy, err := naive.NewPolicy(5 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddControlPoint(CPConfig{
			ID: ident.NodeID(100 + i), Device: 1, DeviceAddrPort: dev.Addr(),
			Policy: policy, Listener: lst,
			// An hour of retransmit headroom: a shed cycle parks the CP
			// instead of racing toward a false lost verdict mid-test.
			Retransmit: core.RetransmitConfig{FirstTimeout: time.Hour, RetryTimeout: time.Hour},
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "probes shed", func() bool {
		return f.Snapshot().Total.ProbesShed >= 5
	})
	snap := f.Snapshot().Total
	if snap.RepliesIn == 0 {
		t.Fatal("budget shed everything — the in-budget probe should complete")
	}
	if _, lost, byes := lst.snapshot(); lost != 0 || byes != 0 {
		t.Fatalf("shedding manufactured verdicts: lost=%d byes=%d", lost, byes)
	}
}

func TestDrainRebalance(t *testing.T) {
	const nCPs = 12
	f := startedFleet(t, Config{Shards: 4})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	lst := &countingListener{}
	// Pick ids that spread evenly over the hash homes, so the drained
	// shard is guaranteed to host some CPs whatever mix64 does.
	perShard := make([]int, 4)
	ids := make([]ident.NodeID, 0, nCPs)
	for id := ident.NodeID(200); len(ids) < nCPs; id++ {
		if home := f.HomeShard(id); perShard[home] < nCPs/4 {
			perShard[home]++
			ids = append(ids, id)
		}
	}
	onDrained := perShard[1]
	for _, id := range ids {
		addDCPPCP(t, f, id, 1, dev.Addr().String(), lst)
	}
	waitFor(t, 5*time.Second, "steady probing", func() bool {
		alive, _, _ := lst.snapshot()
		return alive >= nCPs
	})

	moved, err := f.DrainShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != onDrained {
		t.Fatalf("drain moved %d CPs, shard 1 hosted %d", moved, onDrained)
	}
	if d := f.Draining(); !d[1] || d[0] || d[2] || d[3] {
		t.Fatalf("draining marks after DrainShard(1): %v", d)
	}
	for _, id := range ids {
		if got := f.shardOf(t, id); got == 1 {
			t.Fatalf("CP %v still on drained shard", id)
		}
	}
	if mig := f.Snapshot().Total.Migrations; mig != uint64(moved) {
		t.Fatalf("Migrations counter = %d, want %d", mig, moved)
	}
	// Placement avoids the draining shard: an id homed on shard 1 must
	// land elsewhere while the mark stands.
	extra := ident.NodeID(0)
	for id := ident.NodeID(500); id < 600; id++ {
		if f.HomeShard(id) == 1 {
			extra = id
			break
		}
	}
	cp := addDCPPCP(t, f, extra, 1, dev.Addr().String(), nil)
	if cp.Shard() == 1 {
		t.Fatal("new CP placed on a draining shard")
	}
	cp.Remove()

	// Verdict-free migration: probing continues after the drain.
	aliveBefore, _, _ := lst.snapshot()
	waitFor(t, 5*time.Second, "probing after drain", func() bool {
		alive, _, _ := lst.snapshot()
		return alive >= aliveBefore+nCPs
	})

	movedBack, err := f.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if movedBack != moved {
		t.Fatalf("rebalance moved %d CPs back, drain had moved %d", movedBack, moved)
	}
	for _, d := range f.Draining() {
		if d {
			t.Fatal("draining mark survived Rebalance")
		}
	}
	for _, id := range ids {
		if got := f.shardOf(t, id); got != f.HomeShard(id) {
			t.Fatalf("CP %v on shard %d after rebalance, home is %d", id, got, f.HomeShard(id))
		}
	}
	if _, lost, byes := lst.snapshot(); lost != 0 || byes != 0 {
		t.Fatalf("migration manufactured verdicts: lost=%d byes=%d", lost, byes)
	}

	// Draining the last non-draining shard must be refused.
	for i := 1; i < 4; i++ {
		if _, err := f.DrainShard(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.DrainShard(0); err == nil {
		t.Fatal("draining every shard accepted")
	}
	if _, err := f.DrainShard(99); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// shardOf resolves a CP id to its current shard via the directory —
// test-only introspection for migration asserts.
func (f *Fleet) shardOf(t *testing.T, id ident.NodeID) int {
	t.Helper()
	f.adminMu.Lock()
	n := f.dir[id]
	f.adminMu.Unlock()
	if n == nil {
		t.Fatalf("CP %v not in directory", id)
	}
	return n.sh().index
}

// TestAddDeviceRuntime exercises the device half of the mutation
// plane: occupancy, removal, and re-add on a running fleet.
func TestAddRemoveDeviceRuntime(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	addDCPPDevice(t, f, 1, fastDCPP())
	addDCPPDevice(t, f, 2, fastDCPP())
	if err := f.RemoveDevice(7); err == nil {
		t.Fatal("removing an unhosted device accepted")
	}
	if err := f.RemoveDevice(1); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveDevice(1); err == nil {
		t.Fatal("double device remove accepted")
	}
	// The freed shard hosts a replacement.
	dev3 := addDCPPDevice(t, f, 3, fastDCPP())
	cp := addDCPPCP(t, f, 70, 3, dev3.Addr().String(), nil)
	waitFor(t, 3*time.Second, "cycle against re-added device", func() bool {
		return cp.Stats().CyclesOK >= 1
	})
}
