// Package wire defines the binary on-the-wire encoding of the protocol
// messages for the real-network (UDP) runtime.
//
// Frame layout (big endian):
//
//	magic   uint16  0xAD05 ("are you still there", DSN'05)
//	version uint8   1 (checksummed) or 2 (authenticated)
//	type    uint8   message type
//	from    uint32  sender node id
//	cycle   uint32  probe cycle (0 for bye/leave)
//	attempt uint8   attempt within the cycle (0 for bye/leave)
//	payload ...     type specific (see below)
//	trailer         v1: crc uint32, IEEE CRC-32 over everything above
//	                v2: tag [16]byte, AES-128-CMAC over
//	                    everything above (see auth.go)
//
// Payloads: probe/bye/empty-reply carry none; a SAPP reply carries
// pc (uint64) and the two last-prober ids (2×uint32); a DCPP reply
// carries the wait in nanoseconds (int64); a leave notice carries the
// device, origin, sequence number (3×uint32) and TTL (uint8).
//
// Version 1 frames are integrity-checked (CRC-32 catches corruption,
// not forgery). Version 2 frames replace the checksum with an
// AES-128-CMAC tag keyed per sender/receiver pair: the tag subsumes the
// CRC's corruption detection and additionally authenticates the frame,
// so an on-path attacker without the key can neither forge nor tamper.
// DecodeFrame accepts both versions structurally; verifying a v2 tag is
// a separate keyed step (AuthKey.VerifyFrame) so receivers can look up
// the pairwise key after demultiplexing. The boxed Decode path remains
// v1-only — it has no key plumbing, and silently accepting
// unverified-but-authenticated frames would be a downgrade.
//
// The v1 trailer is plain IEEE CRC-32 (crc32.ChecksumIEEE), the same
// bytes any IEEE CRC-32 implementation computes. Probes, empty
// replies and BYEs have 13-byte bodies, too short for hash/crc32's
// fast kernel, so checksum.go serves that one length from
// position-indexed tables built from, and tested against, the standard
// library; every other length goes to the standard library directly.
//
// Every frame fits comfortably in one UDP datagram (max 45 bytes), in
// keeping with the protocol's "small computing devices" ambition.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"presence/internal/core"
	"presence/internal/ident"
)

// Magic identifies presence-protocol frames.
const Magic uint16 = 0xAD05

// Version is the unauthenticated (CRC-trailed) wire format version.
const Version uint8 = 1

// VersionAuth is the authenticated wire format version: the CRC-32
// trailer is replaced by a TagSize-byte AES-128-CMAC tag.
const VersionAuth uint8 = 2

// Message types on the wire.
const (
	typeProbe      uint8 = 1
	typeReplySAPP  uint8 = 2
	typeReplyDCPP  uint8 = 3
	typeReplyEmpty uint8 = 4
	typeBye        uint8 = 5
	typeLeave      uint8 = 6
	typeAnnounce   uint8 = 7
)

const (
	headerSize = 2 + 1 + 1 + 4 + 4 + 1
	crcSize    = 4
	// TagSize is the AES-128-CMAC tag length of a v2 frame: one full
	// cipher block, untruncated.
	TagSize = 16
	// MaxFrameSize is the largest encoded frame (an authenticated SAPP
	// reply: header + 16-byte payload + tag).
	MaxFrameSize = headerSize + 8 + 4 + 4 + TagSize
)

// Decoding errors. All are static sentinels: DecodeFrame runs per
// received packet on fleet hot paths, where a garbage or attack flood
// must not allocate an error per frame (receivers count rejects in
// Counters.BadFrames instead of formatting them).
var (
	ErrTooShort    = errors.New("wire: frame too short")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrUnknownType = errors.New("wire: unknown message type")
	ErrBadLength   = errors.New("wire: wrong frame length for type")
	// ErrAuthFrame reports a structurally valid v2 (authenticated) frame
	// handed to the boxed Decode path, which has no key plumbing and
	// would otherwise silently skip tag verification.
	ErrAuthFrame = errors.New("wire: authenticated frame requires keyed decode")
)

// Encode serialises a protocol message into a fresh buffer.
func Encode(msg core.Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, MaxFrameSize), msg)
}

// AppendEncode serialises msg, appending to dst (which may be nil), and
// returns the extended buffer. It fails on unknown message or payload
// types. Pooled pointer forms encode identically to their value forms
// and without boxing them back into values, so encoding a pooled
// message into a reused buffer allocates nothing — the property the
// fleet's per-packet send path is built on (the caller keeps ownership
// either way).
func AppendEncode(dst []byte, msg core.Message) ([]byte, error) {
	var f Frame
	if err := frameOf(&f, msg); err != nil {
		return nil, err
	}
	return AppendEncodeFrame(dst, &f)
}

// AppendEncodeAuth serialises msg as an authenticated v2 frame, tagged
// under k, appending to dst. Like AppendEncode it allocates nothing
// when dst has capacity — the fleet's send path signs into its reusable
// send-queue slots.
func AppendEncodeAuth(dst []byte, msg core.Message, k *AuthKey) ([]byte, error) {
	var f Frame
	if err := frameOf(&f, msg); err != nil {
		return nil, err
	}
	return AppendEncodeFrameAuth(dst, &f, k)
}

// frameOf flattens a boxed message into the caller's zero Frame, in
// place — at 88 bytes a Frame is too big to return by value once per
// packet. Pooled pointer forms flatten identically to their value forms
// without boxing them back.
func frameOf(f *Frame, msg core.Message) error {
	switch m := msg.(type) {
	case core.ProbeMsg:
		f.Kind, f.From, f.Cycle, f.Attempt = KindProbe, m.From, m.Cycle, m.Attempt
	case *core.ProbeMsg:
		f.Kind, f.From, f.Cycle, f.Attempt = KindProbe, m.From, m.Cycle, m.Attempt
	case core.ReplyMsg:
		f.From, f.Cycle, f.Attempt = m.From, m.Cycle, m.Attempt
		return replyFrame(f, m.Payload)
	case *core.ReplyMsg:
		f.From, f.Cycle, f.Attempt = m.From, m.Cycle, m.Attempt
		return replyFrame(f, m.Payload)
	case core.ByeMsg:
		f.Kind, f.From = KindBye, m.From
	case core.AnnounceMsg:
		f.Kind, f.From, f.MaxAge = KindAnnounce, m.From, m.MaxAge
	case core.LeaveNotice:
		f.Kind, f.From = KindLeave, m.Origin
		f.Device, f.Origin, f.Seq, f.TTL = m.Device, m.Origin, m.Seq, m.TTL
	default:
		return fmt.Errorf("wire: unsupported message type %T", msg)
	}
	return nil
}

// replyFrame fills the payload union from either payload form.
func replyFrame(f *Frame, pl core.Payload) error {
	switch p := pl.(type) {
	case core.SAPPReply:
		f.Kind, f.ProbeCount, f.LastProbers = KindReplySAPP, p.ProbeCount, p.LastProbers
	case *core.SAPPReply:
		f.Kind, f.ProbeCount, f.LastProbers = KindReplySAPP, p.ProbeCount, p.LastProbers
	case core.DCPPReply:
		f.Kind, f.Wait = KindReplyDCPP, p.Wait
	case *core.DCPPReply:
		f.Kind, f.Wait = KindReplyDCPP, p.Wait
	case core.EmptyReply:
		f.Kind = KindReplyEmpty
	default:
		return fmt.Errorf("wire: unsupported reply payload %T", pl)
	}
	return nil
}

// AppendEncodeFrame serialises one flat Frame — DecodeFrame's inverse.
// Frames with Version 0 or 1 gain a CRC trailer; a Frame with Version 2
// is re-serialised with its Tag field verbatim (the decode→re-encode
// identity the fuzzer pins), which is only useful for frames that came
// out of DecodeFrame — fresh authenticated encodes go through
// AppendEncodeFrameAuth, which computes the tag.
func AppendEncodeFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	version := f.Version
	if version == 0 {
		version = Version
	}
	out, err := appendFrameBody(dst, f, version)
	if err != nil {
		return nil, err
	}
	if version == VersionAuth {
		return append(out, f.Tag[:]...), nil
	}
	return binary.BigEndian.AppendUint32(out, checksum(out[start:])), nil
}

// AppendEncodeFrameAuth serialises one flat Frame as a v2 frame with a
// freshly computed tag under k, recording the tag in f.Tag.
func AppendEncodeFrameAuth(dst []byte, f *Frame, k *AuthKey) ([]byte, error) {
	start := len(dst)
	out, err := appendFrameBody(dst, f, VersionAuth)
	if err != nil {
		return nil, err
	}
	f.Version = VersionAuth
	copy(f.Tag[:], k.tag(out[start:]))
	return append(out, f.Tag[:]...), nil
}

// appendFrameBody serialises the signed/checksummed region of a frame:
// header (with the given version byte) plus payload, no trailer.
func appendFrameBody(dst []byte, f *Frame, version uint8) ([]byte, error) {
	var typ uint8
	switch f.Kind {
	case KindProbe:
		typ = typeProbe
	case KindReplySAPP:
		typ = typeReplySAPP
	case KindReplyDCPP:
		typ = typeReplyDCPP
	case KindReplyEmpty:
		typ = typeReplyEmpty
	case KindBye:
		typ = typeBye
	case KindAnnounce:
		typ = typeAnnounce
	case KindLeave:
		typ = typeLeave
	default:
		return nil, fmt.Errorf("wire: unsupported frame kind %d", f.Kind)
	}
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, version, typ)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.From))
	dst = binary.BigEndian.AppendUint32(dst, f.Cycle)
	dst = append(dst, f.Attempt)
	switch f.Kind {
	case KindReplySAPP:
		dst = binary.BigEndian.AppendUint64(dst, f.ProbeCount)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.LastProbers[0]))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.LastProbers[1]))
	case KindReplyDCPP:
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.Wait.Nanoseconds()))
	case KindAnnounce:
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.MaxAge.Nanoseconds()))
	case KindLeave:
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Device))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Origin))
		dst = binary.BigEndian.AppendUint32(dst, f.Seq)
		dst = append(dst, f.TTL)
	}
	return dst, nil
}

// Kind tags a decoded Frame with its message type.
type Kind uint8

// Frame kinds, one per wire message type.
const (
	KindInvalid Kind = iota
	KindProbe
	KindReplySAPP
	KindReplyDCPP
	KindReplyEmpty
	KindBye
	KindAnnounce
	KindLeave
)

// Frame is one decoded wire frame as a flat struct: a tagged union of
// every message type's fields, with no interface boxing. DecodeFrame
// fills one without allocating, which is what packet-per-microsecond
// receive loops (internal/fleet's shard loops) dispatch on; Decode
// wraps it for callers that want the core.Message form and can afford
// the box.
//
// Valid fields by Kind: From always; Cycle and Attempt for probes and
// replies; ProbeCount and LastProbers for SAPP replies; Wait for DCPP
// replies; MaxAge for announces; Device, Origin, Seq and TTL for leave
// notices. Version records the wire version the frame was decoded from
// (encoders treat 0 as 1); Tag holds a v2 frame's unverified tag —
// call AuthKey.VerifyFrame before trusting any other field of a
// VersionAuth frame.
type Frame struct {
	Kind    Kind
	Version uint8
	From    ident.NodeID
	Cycle   uint32
	Attempt uint8

	ProbeCount  uint64
	LastProbers [2]ident.NodeID
	Wait        time.Duration
	MaxAge      time.Duration

	Device ident.NodeID
	Origin ident.NodeID
	Seq    uint32
	TTL    uint8

	Tag [TagSize]byte
}

// ReplayKey is a reply frame's replay-detection identity: the
// (From, Cycle) pair packed the way reply demultiplexers key their
// pending tables. Replay protection is receiver-local state over
// fields every reply already carries — the wire format needs no nonce
// or timestamp, so hardened and unhardened nodes stay codec-compatible
// frame for frame.
func (f *Frame) ReplayKey() uint64 {
	return uint64(f.From)<<32 | uint64(f.Cycle)
}

// DecodeFrame parses one frame into f without allocating. It validates
// magic, version, the v1 checksum and the exact frame length for the
// message type; on error f.Kind is KindInvalid. A v2 frame is accepted
// structurally with its tag copied into f.Tag but NOT verified — the
// tag is keyed, and receivers demultiplex first to find the pairwise
// key, then call AuthKey.VerifyFrame. Every error is a static sentinel
// so a garbage flood costs the receive path no allocations.
func DecodeFrame(b []byte, f *Frame) error {
	f.Kind = KindInvalid
	if len(b) < headerSize+crcSize {
		return ErrTooShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return ErrBadMagic
	}
	var payload []byte
	switch b[2] {
	case Version:
		body, crcBytes := b[:len(b)-crcSize], b[len(b)-crcSize:]
		if checksum(body) != binary.BigEndian.Uint32(crcBytes) {
			return ErrBadChecksum
		}
		payload = body[headerSize:]
	case VersionAuth:
		if len(b) < headerSize+TagSize {
			return ErrTooShort
		}
		payload = b[headerSize : len(b)-TagSize]
	default:
		return ErrBadVersion
	}
	typ := b[3]
	f.Version = b[2]
	f.From = ident.NodeID(binary.BigEndian.Uint32(b[4:]))
	f.Cycle = binary.BigEndian.Uint32(b[8:])
	f.Attempt = b[12]
	if f.Version == VersionAuth {
		copy(f.Tag[:], b[len(b)-TagSize:])
	} else {
		f.Tag = [TagSize]byte{}
	}
	switch typ {
	case typeProbe:
		if len(payload) != 0 {
			return ErrBadLength
		}
		f.Kind = KindProbe
	case typeReplySAPP:
		if len(payload) != 16 {
			return ErrBadLength
		}
		f.Kind = KindReplySAPP
		f.ProbeCount = binary.BigEndian.Uint64(payload)
		f.LastProbers = [2]ident.NodeID{
			ident.NodeID(binary.BigEndian.Uint32(payload[8:])),
			ident.NodeID(binary.BigEndian.Uint32(payload[12:])),
		}
	case typeReplyDCPP:
		if len(payload) != 8 {
			return ErrBadLength
		}
		f.Kind = KindReplyDCPP
		f.Wait = time.Duration(int64(binary.BigEndian.Uint64(payload)))
	case typeReplyEmpty:
		if len(payload) != 0 {
			return ErrBadLength
		}
		f.Kind = KindReplyEmpty
	case typeBye:
		if len(payload) != 0 {
			return ErrBadLength
		}
		f.Kind = KindBye
	case typeAnnounce:
		if len(payload) != 8 {
			return ErrBadLength
		}
		f.Kind = KindAnnounce
		f.MaxAge = time.Duration(int64(binary.BigEndian.Uint64(payload)))
	case typeLeave:
		if len(payload) != 13 {
			return ErrBadLength
		}
		f.Kind = KindLeave
		f.Device = ident.NodeID(binary.BigEndian.Uint32(payload))
		f.Origin = ident.NodeID(binary.BigEndian.Uint32(payload[4:]))
		f.Seq = binary.BigEndian.Uint32(payload[8:])
		f.TTL = payload[12]
	default:
		return ErrUnknownType
	}
	return nil
}

// Decode parses one frame. It validates magic, version, checksum and
// the exact frame length for the message type. It speaks v1 only: a
// structurally valid v2 frame returns ErrAuthFrame, because this path
// has nowhere to thread the verification key and returning the message
// unverified would quietly drop authentication.
func Decode(b []byte) (core.Message, error) {
	var f Frame
	if err := DecodeFrame(b, &f); err != nil {
		return nil, err
	}
	if f.Version == VersionAuth {
		return nil, ErrAuthFrame
	}
	switch f.Kind {
	case KindProbe:
		return core.ProbeMsg{From: f.From, Cycle: f.Cycle, Attempt: f.Attempt}, nil
	case KindReplySAPP:
		return core.ReplyMsg{From: f.From, Cycle: f.Cycle, Attempt: f.Attempt, Payload: core.SAPPReply{
			ProbeCount:  f.ProbeCount,
			LastProbers: f.LastProbers,
		}}, nil
	case KindReplyDCPP:
		return core.ReplyMsg{From: f.From, Cycle: f.Cycle, Attempt: f.Attempt, Payload: core.DCPPReply{Wait: f.Wait}}, nil
	case KindReplyEmpty:
		return core.ReplyMsg{From: f.From, Cycle: f.Cycle, Attempt: f.Attempt, Payload: core.EmptyReply{}}, nil
	case KindBye:
		return core.ByeMsg{From: f.From}, nil
	case KindAnnounce:
		return core.AnnounceMsg{From: f.From, MaxAge: f.MaxAge}, nil
	case KindLeave:
		return core.LeaveNotice{Device: f.Device, Origin: f.Origin, Seq: f.Seq, TTL: f.TTL}, nil
	default:
		return nil, ErrUnknownType
	}
}
