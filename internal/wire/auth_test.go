package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/ident"
)

var testMaster = []byte("auth-test-master-secret")

func pairKey(t testing.TB, cp, device ident.NodeID) *AuthKey {
	t.Helper()
	k, err := DeriveKey(testMaster, PairInfo(cp, device))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func authMsgs() []core.Message {
	return []core.Message{
		core.ProbeMsg{From: 7, Cycle: 42, Attempt: 1},
		core.ReplyMsg{From: 1, Cycle: 42, Attempt: 0, Payload: core.SAPPReply{
			ProbeCount: 900, LastProbers: [2]ident.NodeID{3, 9},
		}},
		core.ReplyMsg{From: 1, Cycle: 7, Attempt: 2, Payload: core.DCPPReply{Wait: 1500 * time.Millisecond}},
		core.ReplyMsg{From: 1, Cycle: 7, Attempt: 3, Payload: core.EmptyReply{}},
		core.ByeMsg{From: 12},
		core.AnnounceMsg{From: 4, MaxAge: 30 * time.Second},
		core.LeaveNotice{Device: 1, Origin: 5, Seq: 77, TTL: 3},
	}
}

// Every message type round-trips through the authenticated encoding:
// encode v2, decode structurally, verify the tag, and re-encode to the
// exact input bytes with the tag preserved.
func TestAuthRoundTrip(t *testing.T) {
	k := pairKey(t, 7, 1)
	for _, msg := range authMsgs() {
		b, err := AppendEncodeAuth(nil, msg, k)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		if len(b) > MaxFrameSize {
			t.Fatalf("%T: %d bytes exceeds MaxFrameSize %d", msg, len(b), MaxFrameSize)
		}
		var f Frame
		if err := DecodeFrame(b, &f); err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if f.Version != VersionAuth {
			t.Fatalf("%T: version %d, want %d", msg, f.Version, VersionAuth)
		}
		if !k.VerifyFrame(&f) {
			t.Fatalf("%T: genuine frame failed verification", msg)
		}
		re, err := AppendEncodeFrame(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("%T: v2 re-encode differs:\n in  %x\n out %x", msg, b, re)
		}
	}
}

// Every single-bit flip anywhere in a v2 frame — header, payload or
// tag — must break verification (or structural decode). This is the
// cryptographic upgrade over the v1 CRC: no flip pattern survives.
func TestAuthEveryBitFlipRejected(t *testing.T) {
	k := pairKey(t, 7, 1)
	for _, msg := range authMsgs() {
		b, err := AppendEncodeAuth(nil, msg, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(b)*8; i++ {
			corrupted := bytes.Clone(b)
			corrupted[i/8] ^= 1 << (i % 8)
			var f Frame
			if err := DecodeFrame(corrupted, &f); err != nil {
				continue // structurally rejected: fine
			}
			if f.Version != VersionAuth {
				continue // flipped into a v1 frame: CRC already rejected it above
			}
			if k.VerifyFrame(&f) {
				t.Fatalf("%T: bit flip %d verified as genuine", msg, i)
			}
		}
	}
}

// A frame signed under one pairwise key never verifies under another —
// per-pair derivation means a compromised or malicious peer cannot
// forge traffic for any other pair.
func TestAuthKeySeparation(t *testing.T) {
	k1 := pairKey(t, 7, 1)
	k2 := pairKey(t, 8, 1) // different CP, same device
	k3 := pairKey(t, 7, 2) // same CP, different device
	dev, err := DeriveKey(testMaster, DeviceInfo(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendEncodeAuth(nil, core.ProbeMsg{From: 7, Cycle: 9}, k1)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeFrame(b, &f); err != nil {
		t.Fatal(err)
	}
	if !k1.VerifyFrame(&f) {
		t.Fatal("genuine frame failed under its own key")
	}
	for name, k := range map[string]*AuthKey{"other-cp": k2, "other-device": k3, "device-broadcast": dev} {
		if k.VerifyFrame(&f) {
			t.Fatalf("frame verified under unrelated key %s", name)
		}
	}
	other, err := DeriveKey([]byte("a different master"), PairInfo(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if other.VerifyFrame(&f) {
		t.Fatal("frame verified under a different master secret")
	}
}

// DeriveKey is deterministic: both endpoints of a pair derive the same
// schedule from the shared master.
func TestDeriveKeyDeterministic(t *testing.T) {
	a := pairKey(t, 3, 4)
	b := pairKey(t, 3, 4)
	frame, err := AppendEncodeAuth(nil, core.ByeMsg{From: 4}, a)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeFrame(frame, &f); err != nil {
		t.Fatal(err)
	}
	if !b.VerifyFrame(&f) {
		t.Fatal("independently derived schedule rejected the frame")
	}
	if _, err := DeriveKey(nil, PairInfo(1, 2)); err == nil {
		t.Fatal("empty master accepted")
	}
}

// The boxed Decode path must refuse v2 frames rather than return an
// unverified message.
func TestDecodeRejectsAuthFrames(t *testing.T) {
	k := pairKey(t, 7, 1)
	b, err := AppendEncodeAuth(nil, core.ProbeMsg{From: 7, Cycle: 1}, k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(b); !errors.Is(err, ErrAuthFrame) {
		t.Fatalf("err = %v, want ErrAuthFrame", err)
	}
}

// Truncating a v2 frame anywhere in the tag must fail structurally.
func TestAuthTruncatedTag(t *testing.T) {
	k := pairKey(t, 7, 1)
	b, err := AppendEncodeAuth(nil, core.ProbeMsg{From: 7, Cycle: 1}, k)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	for cut := 1; cut <= TagSize; cut++ {
		if err := DecodeFrame(b[:len(b)-cut], &f); err == nil {
			t.Fatalf("frame truncated by %d bytes accepted", cut)
		}
	}
}

// The decode errors stay static sentinels — a garbage flood must not
// allocate an error value per packet (the satellite bugfix this pins).
func TestDecodeErrorsAreSentinels(t *testing.T) {
	good, err := Encode(core.ProbeMsg{From: 7, Cycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	badVersion := bytes.Clone(good)
	badVersion[2] = 99
	var f Frame
	if err := DecodeFrame(badVersion, &f); err != ErrBadVersion {
		t.Fatalf("bad version: err = %v (%T), want the ErrBadVersion sentinel itself", err, err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if DecodeFrame(badVersion, &f) == nil {
			t.Error("bad version accepted")
		}
	}); allocs != 0 {
		t.Fatalf("bad-version decode allocates %.1f per call, want 0", allocs)
	}
}

// Sign and verify allocate nothing once the schedule exists — the
// property the fleet hot path's 0 allocs/op gate extends over.
func TestAuthZeroAlloc(t *testing.T) {
	k := pairKey(t, 7, 1)
	vk := pairKey(t, 7, 1)
	var msg core.Message = core.ReplyMsg{From: 1, Cycle: 9, Attempt: 1, Payload: core.DCPPReply{Wait: time.Second}}
	buf := make([]byte, 0, MaxFrameSize)
	var f Frame
	if allocs := testing.AllocsPerRun(200, func() {
		b, err := AppendEncodeAuth(buf[:0], msg, k)
		if err != nil {
			t.Error(err)
			return
		}
		if err := DecodeFrame(b, &f); err != nil {
			t.Error(err)
			return
		}
		if !vk.VerifyFrame(&f) {
			t.Error("verification failed")
		}
	}); allocs != 0 {
		t.Fatalf("sign+decode+verify allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkAuthSign(b *testing.B) {
	k := pairKey(b, 7, 1)
	var msg core.Message = core.ReplyMsg{From: 1, Cycle: 9, Attempt: 1, Payload: core.DCPPReply{Wait: time.Second}}
	buf := make([]byte, 0, MaxFrameSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendEncodeAuth(buf[:0], msg, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuthVerify(b *testing.B) {
	k := pairKey(b, 7, 1)
	frame, err := AppendEncodeAuth(nil, core.ReplyMsg{From: 1, Cycle: 9, Attempt: 1,
		Payload: core.DCPPReply{Wait: time.Second}}, k)
	if err != nil {
		b.Fatal(err)
	}
	var f Frame
	if err := DecodeFrame(frame, &f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.VerifyFrame(&f) {
			b.Fatal("verification failed")
		}
	}
}
