package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/ident"
)

// FuzzDecode throws arbitrary bytes at the frame decoder. DecodeFrame
// must never panic; and whenever it accepts a frame — v1 or v2 — the
// decoded Frame must re-encode to the exact input bytes (the format
// has no slack: fixed lengths, no padding, a trailing CRC or tag),
// making decode∘encode an identity on the accepted set, tag included.
// For v1 frames the boxed Decode path must agree with the flat path;
// for v2 frames it must refuse with ErrAuthFrame rather than return an
// unverified message.
//
// The identity cannot see a checksum that is wrong the same way in
// encode and decode, so v1 input also meets an independent oracle:
// once past the length and magic checks, DecodeFrame reports
// ErrBadChecksum exactly when crc32.ChecksumIEEE of the body differs
// from the trailer.
func FuzzDecode(f *testing.F) {
	seeds := []core.Message{
		core.ProbeMsg{From: 7, Cycle: 42, Attempt: 1},
		core.ReplyMsg{From: 1, Cycle: 42, Attempt: 0, Payload: core.SAPPReply{
			ProbeCount:  900,
			LastProbers: [2]ident.NodeID{3, 9},
		}},
		core.ReplyMsg{From: 1, Cycle: 7, Attempt: 2, Payload: core.DCPPReply{Wait: 1500 * time.Millisecond}},
		core.ReplyMsg{From: 1, Cycle: 7, Attempt: 3, Payload: core.EmptyReply{}},
		core.ByeMsg{From: 12},
		core.AnnounceMsg{From: 4, MaxAge: 30 * time.Second},
		core.LeaveNotice{Device: 1, Origin: 5, Seq: 77, TTL: 3},
	}
	key, err := DeriveKey([]byte("fuzz-master"), PairInfo(7, 1))
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range seeds {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Mutated variants: flipped type byte, truncation, CRC damage.
		bad := bytes.Clone(b)
		bad[3] ^= 0xff
		f.Add(bad)
		f.Add(b[:len(b)-1])
		// The authenticated sibling, plus the v2-specific mutations:
		// truncated tag, flipped tag bits, and the v1/v2 boundary (the
		// same body bytes under the other version byte).
		b2, err := AppendEncodeAuth(nil, m, key)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b2)
		f.Add(b2[:len(b2)-1])
		f.Add(b2[:len(b2)-TagSize])
		flipped := bytes.Clone(b2)
		flipped[len(flipped)-1] ^= 0x01
		f.Add(flipped)
		cross := bytes.Clone(b)
		cross[2] = VersionAuth
		f.Add(cross)
		cross2 := bytes.Clone(b2)
		cross2[2] = Version
		f.Add(cross2)
	}
	f.Add([]byte{})
	f.Add([]byte("definitely not a frame"))

	f.Fuzz(func(t *testing.T, b []byte) {
		var fr Frame
		err := DecodeFrame(b, &fr)
		if len(b) >= headerSize+crcSize && binary.BigEndian.Uint16(b) == Magic && b[2] == Version {
			body := b[:len(b)-crcSize]
			wantBad := crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[len(body):])
			if gotBad := errors.Is(err, ErrBadChecksum); gotBad != wantBad {
				t.Fatalf("v1 frame %x: DecodeFrame err = %v, stdlib CRC-32 mismatch = %v", b, err, wantBad)
			}
		}
		if err != nil {
			if fr.Kind != KindInvalid {
				t.Fatalf("rejected frame left Kind %v", fr.Kind)
			}
			if _, err := Decode(b); err == nil {
				t.Fatalf("boxed Decode accepted bytes DecodeFrame rejected: %x", b)
			}
			return // rejected input: only absence of panics is asserted
		}
		// Accepted set: flat decode→re-encode is an identity, for both
		// versions (a v2 frame's unverified tag must ride along verbatim).
		re, err := AppendEncodeFrame(nil, &fr)
		if err != nil {
			t.Fatalf("decoded frame %#v does not re-encode: %v", fr, err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("decode∘encode not identity:\n in  %x\n out %x\n frame %#v", b, re, fr)
		}
		var again Frame
		if err := DecodeFrame(re, &again); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if again != fr {
			t.Fatalf("decode not stable: %#v vs %#v", again, fr)
		}
		msg, err := Decode(b)
		if fr.Version == VersionAuth {
			if err != ErrAuthFrame {
				t.Fatalf("boxed Decode of a v2 frame: err = %v, want ErrAuthFrame", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("boxed Decode rejected a v1 frame DecodeFrame accepted: %v", err)
		}
		re2, err := Encode(msg)
		if err != nil {
			t.Fatalf("decoded message %#v does not re-encode: %v", msg, err)
		}
		if !bytes.Equal(re2, b) {
			t.Fatalf("boxed decode∘encode not identity:\n in  %x\n out %x\n msg %#v", b, re2, msg)
		}
		boxedAgain, err := Decode(re2)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(core.Flatten(boxedAgain), core.Flatten(msg)) {
			t.Fatalf("decode not stable: %#v vs %#v", boxedAgain, msg)
		}
	})
}
