package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"
	"time"

	"presence/internal/core"
	"presence/internal/ident"
)

func roundTrip(t *testing.T, msg core.Message) core.Message {
	t.Helper()
	b, err := Encode(msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	if len(b) > MaxFrameSize {
		t.Fatalf("frame %d bytes exceeds MaxFrameSize %d", len(b), MaxFrameSize)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return got
}

func TestRoundTripProbe(t *testing.T) {
	in := core.ProbeMsg{From: 7, Cycle: 42, Attempt: 3}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripSAPPReply(t *testing.T) {
	in := core.ReplyMsg{From: 1, Cycle: 9, Attempt: 1, Payload: core.SAPPReply{
		ProbeCount:  123456789012345,
		LastProbers: [2]ident.NodeID{8, 15},
	}}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripDCPPReply(t *testing.T) {
	in := core.ReplyMsg{From: 1, Cycle: 77, Attempt: 0, Payload: core.DCPPReply{
		Wait: 512300 * time.Microsecond,
	}}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripNegativeWait(t *testing.T) {
	// A buggy peer could send a negative wait; the codec must preserve
	// it so the policy layer can clamp it.
	in := core.ReplyMsg{From: 1, Cycle: 1, Payload: core.DCPPReply{Wait: -time.Second}}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripEmptyReply(t *testing.T) {
	in := core.ReplyMsg{From: 3, Cycle: 2, Attempt: 2, Payload: core.EmptyReply{}}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripBye(t *testing.T) {
	in := core.ByeMsg{From: 250}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestRoundTripLeaveNotice(t *testing.T) {
	in := core.LeaveNotice{Device: 1, Origin: 6, Seq: 99, TTL: 4}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestEncodeUnknownTypes(t *testing.T) {
	type weird struct{ core.Message }
	if _, err := Encode(weird{}); err == nil {
		t.Error("unknown message type encoded")
	}
	type weirdPayload struct{ core.Payload }
	if _, err := Encode(core.ReplyMsg{From: 1, Payload: weirdPayload{}}); err == nil {
		t.Error("unknown payload type encoded")
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, err := Decode([]byte{0xAD, 0x05}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	b, err := Encode(core.ProbeMsg{From: 7, Cycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0xFF
	if _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b, err := Encode(core.ProbeMsg{From: 7, Cycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	b[2] = 99
	if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeUnknownType(t *testing.T) {
	b, err := Encode(core.ProbeMsg{From: 7, Cycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Changing the type invalidates the CRC; rebuild it via AppendEncode
	// of a hand-rolled frame is overkill — instead corrupt type and fix
	// the CRC by re-encoding manually.
	b[3] = 200
	b = fixCRC(b)
	if _, err := Decode(b); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestDecodeWrongLengthForType(t *testing.T) {
	// A DCPP reply frame relabelled as a probe has 8 stray payload
	// bytes.
	b, err := Encode(core.ReplyMsg{From: 1, Cycle: 1, Payload: core.DCPPReply{Wait: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	b[3] = typeProbe
	b = fixCRC(b)
	if _, err := Decode(b); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

// fixCRC recomputes the trailing checksum after test mutations.
func fixCRC(b []byte) []byte {
	body := b[:len(b)-4]
	out := make([]byte, 0, len(b))
	out = append(out, body...)
	crc := crc32.ChecksumIEEE(body)
	return binary.BigEndian.AppendUint32(out, crc)
}

func TestEveryBitFlipDetected(t *testing.T) {
	msgs := []core.Message{
		core.ProbeMsg{From: 7, Cycle: 42, Attempt: 1},
		core.ReplyMsg{From: 1, Cycle: 9, Attempt: 1, Payload: core.SAPPReply{ProbeCount: 1e15, LastProbers: [2]ident.NodeID{8, 15}}},
		core.ReplyMsg{From: 1, Cycle: 3, Payload: core.DCPPReply{Wait: time.Second}},
		core.LeaveNotice{Device: 1, Origin: 6, Seq: 99, TTL: 4},
		core.ReplyMsg{From: 3, Cycle: 2, Attempt: 2, Payload: core.EmptyReply{}},
		core.ByeMsg{From: 250},
		core.AnnounceMsg{From: 9, MaxAge: 1800 * time.Second},
	}
	for _, msg := range msgs {
		b, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(b)*8; i++ {
			corrupted := make([]byte, len(b))
			copy(corrupted, b)
			corrupted[i/8] ^= 1 << (i % 8)
			if got, err := Decode(corrupted); err == nil && got == msg {
				t.Fatalf("%T: bit flip %d yielded the original message undetected", msg, i)
			}
		}
	}
}

func TestAppendEncodeReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	b1, err := AppendEncode(buf, core.ProbeMsg{From: 1, Cycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	if &b1[0] != &buf[:1][0] {
		t.Fatal("AppendEncode reallocated despite sufficient capacity")
	}
}

// Property: every probe round-trips bit-exactly.
func TestPropertyProbeRoundTrip(t *testing.T) {
	f := func(from uint32, cycle uint32, attempt uint8) bool {
		in := core.ProbeMsg{From: ident.NodeID(from), Cycle: cycle, Attempt: attempt}
		b, err := Encode(in)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every SAPP reply round-trips bit-exactly.
func TestPropertySAPPReplyRoundTrip(t *testing.T) {
	f := func(from, l1, l2, cycle uint32, attempt uint8, pc uint64) bool {
		in := core.ReplyMsg{From: ident.NodeID(from), Cycle: cycle, Attempt: attempt,
			Payload: core.SAPPReply{ProbeCount: pc, LastProbers: [2]ident.NodeID{ident.NodeID(l1), ident.NodeID(l2)}}}
		b, err := Encode(in)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: random garbage never decodes successfully (the magic, CRC
// and length checks must reject it).
func TestPropertyGarbageRejected(t *testing.T) {
	f := func(garbage []byte) bool {
		// Give the garbage a valid magic half the time to exercise the
		// deeper checks.
		if len(garbage) >= 2 && len(garbage)%2 == 0 {
			garbage[0], garbage[1] = 0xAD, 0x05
		}
		_, err := Decode(garbage)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeProbe(b *testing.B) {
	buf := make([]byte, 0, MaxFrameSize)
	msg := &core.ProbeMsg{From: 7, Cycle: 42, Attempt: 1} // the pooled pointer form the fleet encodes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEncode(buf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeProbe times the flat decode of a probe, the 13-byte
// body the checksum kernel serves and the frame hot-plain decodes most.
func BenchmarkDecodeProbe(b *testing.B) {
	frame, err := Encode(core.ProbeMsg{From: 7, Cycle: 42, Attempt: 1})
	if err != nil {
		b.Fatal(err)
	}
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeFrame(frame, &f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSAPPReply(b *testing.B) {
	frame, err := Encode(core.ReplyMsg{From: 1, Cycle: 9, Attempt: 1,
		Payload: core.SAPPReply{ProbeCount: 1e15, LastProbers: [2]ident.NodeID{8, 15}}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRoundTripAnnounce(t *testing.T) {
	in := core.AnnounceMsg{From: 9, MaxAge: 1800 * time.Second}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

// TestDecodeFrameMatchesDecode pins the flat DecodeFrame path against
// the boxed Decode path for every message type: same acceptance, same
// fields, and Frame round-trips through AppendEncodeFrame to the same
// bytes.
func TestDecodeFrameMatchesDecode(t *testing.T) {
	msgs := []core.Message{
		core.ProbeMsg{From: 7, Cycle: 0xCAFEBABE, Attempt: 3},
		core.ReplyMsg{From: 9, Cycle: 12, Attempt: 1, Payload: core.SAPPReply{ProbeCount: 1 << 40, LastProbers: [2]ident.NodeID{4, 5}}},
		core.ReplyMsg{From: 9, Cycle: 12, Attempt: 0, Payload: core.DCPPReply{Wait: 1500 * time.Millisecond}},
		core.ReplyMsg{From: 2, Cycle: 1, Attempt: 2, Payload: core.EmptyReply{}},
		core.ByeMsg{From: 11},
		core.AnnounceMsg{From: 13, MaxAge: time.Minute},
		core.LeaveNotice{Device: 1, Origin: 2, Seq: 77, TTL: 4},
	}
	for _, msg := range msgs {
		b, err := Encode(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		var f Frame
		if err := DecodeFrame(b, &f); err != nil {
			t.Fatalf("DecodeFrame(%T): %v", msg, err)
		}
		boxed, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		// Re-encoding the flat frame must reproduce the wire bytes.
		b2, err := AppendEncodeFrame(nil, &f)
		if err != nil {
			t.Fatalf("AppendEncodeFrame(%T): %v", msg, err)
		}
		if string(b2) != string(b) {
			t.Fatalf("%T: frame re-encode differs: %x vs %x", msg, b2, b)
		}
		// And the boxed decode of those bytes must equal the original.
		if boxed != msg {
			t.Fatalf("%T: boxed decode = %#v, want %#v", msg, boxed, msg)
		}
	}
}

// TestDecodeFrameZeroAlloc pins the property the fleet's receive path
// depends on: decoding into a caller-owned Frame allocates nothing.
func TestDecodeFrameZeroAlloc(t *testing.T) {
	b, err := Encode(core.ReplyMsg{From: 9, Cycle: 12, Payload: core.DCPPReply{Wait: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeFrame(b, &f); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeFrame allocates %.1f times per call, want 0", allocs)
	}
}

// TestAppendEncodeMatchesFrameEncode pins the message → Frame
// flattening (frameOf fills the caller's Frame in place) against
// hand-built Frames: for every message kind, in value and in pointer
// form, AppendEncode and AppendEncodeAuth produce exactly the bytes
// AppendEncodeFrame and AppendEncodeFrameAuth produce — no field left
// out, none left over from the zero Frame.
func TestAppendEncodeMatchesFrameEncode(t *testing.T) {
	sapp := core.SAPPReply{ProbeCount: 1<<40 + 3, LastProbers: [2]ident.NodeID{4, 5}}
	dcpp := core.DCPPReply{Wait: -1500 * time.Millisecond}
	cases := []struct {
		name string
		msgs []core.Message // every boxed form of one message
		f    Frame
	}{
		{"probe",
			[]core.Message{
				core.ProbeMsg{From: 7, Cycle: 0xCAFEBABE, Attempt: 3},
				&core.ProbeMsg{From: 7, Cycle: 0xCAFEBABE, Attempt: 3},
			},
			Frame{Kind: KindProbe, From: 7, Cycle: 0xCAFEBABE, Attempt: 3}},
		{"reply-sapp",
			[]core.Message{
				core.ReplyMsg{From: 9, Cycle: 12, Attempt: 1, Payload: sapp},
				core.ReplyMsg{From: 9, Cycle: 12, Attempt: 1, Payload: &sapp},
				&core.ReplyMsg{From: 9, Cycle: 12, Attempt: 1, Payload: sapp},
				&core.ReplyMsg{From: 9, Cycle: 12, Attempt: 1, Payload: &sapp},
			},
			Frame{Kind: KindReplySAPP, From: 9, Cycle: 12, Attempt: 1, ProbeCount: sapp.ProbeCount, LastProbers: sapp.LastProbers}},
		{"reply-dcpp",
			[]core.Message{
				core.ReplyMsg{From: 9, Cycle: 13, Attempt: 2, Payload: dcpp},
				core.ReplyMsg{From: 9, Cycle: 13, Attempt: 2, Payload: &dcpp},
				&core.ReplyMsg{From: 9, Cycle: 13, Attempt: 2, Payload: dcpp},
				&core.ReplyMsg{From: 9, Cycle: 13, Attempt: 2, Payload: &dcpp},
			},
			Frame{Kind: KindReplyDCPP, From: 9, Cycle: 13, Attempt: 2, Wait: dcpp.Wait}},
		{"reply-empty",
			[]core.Message{
				core.ReplyMsg{From: 2, Cycle: 1, Attempt: 2, Payload: core.EmptyReply{}},
				&core.ReplyMsg{From: 2, Cycle: 1, Attempt: 2, Payload: core.EmptyReply{}},
			},
			Frame{Kind: KindReplyEmpty, From: 2, Cycle: 1, Attempt: 2}},
		{"bye",
			[]core.Message{core.ByeMsg{From: 11}},
			Frame{Kind: KindBye, From: 11}},
		{"announce",
			[]core.Message{core.AnnounceMsg{From: 13, MaxAge: time.Minute}},
			Frame{Kind: KindAnnounce, From: 13, MaxAge: time.Minute}},
		{"leave",
			[]core.Message{core.LeaveNotice{Device: 1, Origin: 2, Seq: 77, TTL: 4}},
			Frame{Kind: KindLeave, From: 2, Device: 1, Origin: 2, Seq: 77, TTL: 4}},
	}
	k := pairKey(t, 7, 9)
	for _, tc := range cases {
		f := tc.f
		want, err := AppendEncodeFrame(nil, &f)
		if err != nil {
			t.Fatalf("%s: AppendEncodeFrame: %v", tc.name, err)
		}
		f = tc.f
		wantAuth, err := AppendEncodeFrameAuth(nil, &f, k)
		if err != nil {
			t.Fatalf("%s: AppendEncodeFrameAuth: %v", tc.name, err)
		}
		for _, msg := range tc.msgs {
			got, err := AppendEncode(nil, msg)
			if err != nil {
				t.Fatalf("%s: AppendEncode(%T): %v", tc.name, msg, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: AppendEncode(%T) = %x, frame encode = %x", tc.name, msg, got, want)
			}
			got, err = AppendEncodeAuth(nil, msg, k)
			if err != nil {
				t.Fatalf("%s: AppendEncodeAuth(%T): %v", tc.name, msg, err)
			}
			if !bytes.Equal(got, wantAuth) {
				t.Errorf("%s: AppendEncodeAuth(%T) = %x, frame encode = %x", tc.name, msg, got, wantAuth)
			}
		}
	}
}
