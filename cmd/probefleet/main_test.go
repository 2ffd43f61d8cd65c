package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRejectsBadInputs exercises every flag-validation exit path.
func TestRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	blank := filepath.Join(dir, "blank.key")
	if err := os.WriteFile(blank, []byte(" \n\t"), 0o600); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"unknown protocol", []string{"-protocol", "swim", "-cps", "1", "-duration", "1ms"}},
		{"zero cps", []string{"-cps", "0"}},
		{"no devices at all", []string{"-loopback", "0"}},
		{"device id out of range", []string{"-device", "127.0.0.1:9300", "-device-id", "0"}},
		{"bad device address", []string{"-device", "nope:xx", "-cps", "1", "-duration", "1ms"}},
		{"unparseable duration", []string{"-duration", "soon"}},
		{"unknown flag", []string{"-bogus"}},
		{"retired -pprof alias", []string{"-pprof", "127.0.0.1:0", "-cps", "1", "-duration", "1ms"}},
		{"missing auth keyfile", []string{"-auth-keyfile", filepath.Join(dir, "absent.key"), "-cps", "1", "-duration", "1ms"}},
		{"whitespace-only auth keyfile", []string{"-auth-keyfile", blank, "-cps", "1", "-duration", "1ms"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out, nil); err == nil {
				t.Errorf("args %v accepted, want error", c.args)
			}
		})
	}
}

func TestLoopbackRunToDuration(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-cps", "50", "-shards", "2", "-loopback", "2",
		"-min-gap", "5ms", "-min-cp-delay", "20ms",
		"-duration", "700ms", "-interval", "200ms", "-join-ramp", "50ms",
	}, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"2 loopback dcpp device(s) up",
		"all 50 control points joined",
		"probes/s=",
		"probefleet: final after",
		"shard  0:",
		"shard  1:",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "cps=50/50") {
		t.Fatalf("output missing live cps=50/50:\n%s", s)
	}
}

func TestSignalTriggersFinalDump(t *testing.T) {
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{
			"-cps", "10", "-shards", "1", "-loopback", "1",
			"-min-gap", "5ms", "-min-cp-delay", "20ms",
			"-interval", "50ms", "-join-ramp", "1ms",
		}, &out, sig)
	}()
	time.Sleep(400 * time.Millisecond)
	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after the signal")
	}
	s := out.String()
	if !strings.Contains(s, "signal received") || !strings.Contains(s, "probefleet: final after") {
		t.Fatalf("signal path output:\n%s", s)
	}
}

// TestAuthKeyfileAndSIGHUPReload runs an authenticated loopback fleet
// (wire v2 tags required on every frame), rotates the master key live
// via SIGHUP mid-run, and checks the daemon keeps probing across the
// rotation with zero rejected frames — the dual-key grace at work.
func TestAuthKeyfileAndSIGHUPReload(t *testing.T) {
	keyfile := filepath.Join(t.TempDir(), "master.key")
	if err := os.WriteFile(keyfile, []byte("probefleet-test-master-key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{
			"-cps", "20", "-shards", "1", "-loopback", "1",
			"-min-gap", "5ms", "-min-cp-delay", "20ms",
			"-interval", "100ms", "-join-ramp", "1ms",
			"-auth-keyfile", keyfile, "-auth-require",
		}, &out, sig)
	}()
	time.Sleep(400 * time.Millisecond)
	if err := os.WriteFile(keyfile, []byte("probefleet-test-rotated-key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	sig <- syscall.SIGHUP
	time.Sleep(400 * time.Millisecond)
	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the signal")
	}
	s := out.String()
	for _, want := range []string{
		"frame authentication on (key from " + keyfile + ", unauthenticated frames refused); SIGHUP rotates",
		"SIGHUP — auth key reloaded from " + keyfile,
		"probefleet: auth — verified=",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	// Every frame in a loopback run shares the keyfile, so nothing may
	// be rejected — a rejection here means rotation broke verification.
	if strings.Contains(s, "rejected=") && !strings.Contains(s, "rejected=0 ") {
		t.Fatalf("auth rejections in a benign authenticated run:\n%s", s)
	}
}

func TestAuthRequireNeedsKeyfile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-auth-require", "-cps", "1", "-duration", "1ms"}, &out, nil); err == nil {
		t.Fatal("-auth-require without -auth-keyfile accepted, want error")
	}
}

func TestNaiveProtocolLoopback(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-cps", "5", "-shards", "1", "-loopback", "1", "-protocol", "naive",
		"-period", "50ms", "-duration", "400ms", "-interval", "100ms", "-join-ramp", "1ms",
	}, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loopback naive device(s) up") {
		t.Fatalf("output:\n%s", out.String())
	}
}
