package wire

// Frame authentication (wire version 2).
//
// A v2 frame replaces the CRC-32 trailer with a TagSize-byte AES-128-CMAC
// tag (RFC 4493 / NIST SP 800-38B) over the whole header+payload region
// — magic, version, type, ids, cycle, attempt, payload. The tag is the
// full 16-byte cipher block, untruncated: the forgery bound stays at
// 2^-128 per guess while the largest frame holds at 45 bytes, still a
// single-datagram protocol for small devices. The tag subsumes the CRC:
// any corruption an IEEE CRC-32 would catch also breaks the MAC.
//
// Why CMAC. The signed region is 13–29 bytes, so a MAC whose unit of
// work is one AES block costs one block encryption for the header-only
// frames (probe, empty reply, BYE) and two for the rest — what small
// devices accelerate in hardware. It must be CMAC and not raw CBC-MAC:
// frame bodies vary in length, and CBC-MAC without the K1/K2 last-block
// rule is forgeable across lengths. It must not be GMAC either: a
// retransmitted attempt or a restarted cycle counter can repeat a
// would-be nonce under a different payload, and one nonce reuse gives
// away GHASH's authentication key. CMAC is deterministic and needs no
// nonce.
//
// Keys are derived, never used raw: DeriveKey runs HKDF-SHA256 over a
// master secret with a caller-chosen info string, so one pre-shared
// fleet secret yields independent per-(control-point, device) pair
// keys and per-device broadcast keys, and compromise of one derived
// key reveals nothing about its siblings.
//
// An AuthKey is a pre-computed key schedule built for packet-rate use
// on a single goroutine: the AES round keys and the CMAC subkeys K1/K2
// are expanded once at construction, the running block lives in an
// embedded scratch array, and VerifyFrame re-encodes the signed region
// into an embedded buffer — zero heap allocations per sign or verify,
// the property the fleet's 0 allocs/op hot-path gate extends over.
// AuthKey is NOT safe for concurrent use; give each shard its own
// schedule (the fleet derives them per shard-owned node).

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hkdf"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"presence/internal/ident"
)

// hkdfSalt domain-separates presence wire keys from any other use of
// the same master secret.
var hkdfSalt = []byte("presence-wire-v2")

// derivedKeySize is the length of every derived subkey: an AES-128 key.
const derivedKeySize = 16

// AuthKey is a ready-to-use frame authentication key schedule. Build
// one per (sender, receiver) relationship with DeriveKey and keep it:
// construction allocates, sign and verify do not. Not safe for
// concurrent use.
type AuthKey struct {
	block  cipher.Block
	k1, k2 [aes.BlockSize]byte // CMAC subkeys: last block complete / padded
	x      [aes.BlockSize]byte // running CBC block; holds the tag on return
	buf    [MaxFrameSize]byte
}

// newAuthKey expands a raw AES-128 key into a CMAC schedule: the round
// keys plus the two subkeys of RFC 4493 §2.3, K1 = dbl(AES_K(0^128))
// and K2 = dbl(K1).
func newAuthKey(key []byte) (*AuthKey, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	k := &AuthKey{block: block}
	block.Encrypt(k.k1[:], k.k1[:])
	dbl(&k.k1)
	k.k2 = k.k1
	dbl(&k.k2)
	return k, nil
}

// dbl doubles b in GF(2^128): shift left one bit and, if a bit fell
// off the top, fold in the field polynomial 0x87. Branch-free, since b
// is key material.
func dbl(b *[aes.BlockSize]byte) {
	hi := binary.BigEndian.Uint64(b[:8])
	lo := binary.BigEndian.Uint64(b[8:])
	carry := hi >> 63
	binary.BigEndian.PutUint64(b[:8], hi<<1|lo>>63)
	binary.BigEndian.PutUint64(b[8:], lo<<1^carry*0x87)
}

// DeriveKey derives the subkey named by info from a master secret via
// HKDF-SHA256 and returns its schedule. Cold path: construction
// allocates; the returned schedule does not.
func DeriveKey(master []byte, info string) (*AuthKey, error) {
	if len(master) == 0 {
		return nil, fmt.Errorf("wire: empty master key")
	}
	sub, err := hkdf.Key(sha256.New, master, hkdfSalt, info, derivedKeySize)
	if err != nil {
		return nil, fmt.Errorf("wire: derive %q: %w", info, err)
	}
	k, err := newAuthKey(sub)
	if err != nil {
		return nil, fmt.Errorf("wire: derive %q: %w", info, err)
	}
	return k, nil
}

// PairInfo names the (control point, device) pairwise subkey: both
// endpoints of one monitoring relationship derive the same key and use
// it for probes and replies in either direction.
func PairInfo(cp, device ident.NodeID) string {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], uint32(cp))
	binary.BigEndian.PutUint32(b[4:], uint32(device))
	return "pair:" + string(b[:])
}

// DeviceInfo names a device's broadcast subkey, used for the frames a
// device fans out to every watcher (BYE, announce) — one verification
// per received frame regardless of how many control points watch.
func DeviceInfo(device ident.NodeID) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(device))
	return "dev:" + string(b[:])
}

// tag computes the AES-128-CMAC of b into the schedule's scratch and
// returns it (valid until the next tag/VerifyFrame call): CBC-MAC from
// a zero IV over every block but the last, then the last block XORed
// with K1 if it is complete, or padded with 10* and XORed with K2 if it
// is not (the empty message is one padded block).
func (k *AuthKey) tag(b []byte) []byte {
	x := k.x[:]
	clear(x)
	for len(b) > aes.BlockSize {
		subtle.XORBytes(x, x, b[:aes.BlockSize])
		k.block.Encrypt(x, x)
		b = b[aes.BlockSize:]
	}
	subtle.XORBytes(x, x, b)
	mask := &k.k1
	if len(b) < aes.BlockSize {
		x[len(b)] ^= 0x80
		mask = &k.k2
	}
	subtle.XORBytes(x, x, mask[:])
	k.block.Encrypt(x, x)
	return x
}

// VerifyFrame reports whether the decoded v2 frame f carries a valid
// tag under k. The signed region is re-encoded into the schedule's
// scratch buffer (decode∘encode is an identity on frames DecodeFrame
// accepts, so the reconstruction is byte-exact) and the comparison is
// constant-time. Zero allocations; false for non-v2 frames.
func (k *AuthKey) VerifyFrame(f *Frame) bool {
	if f.Version != VersionAuth {
		return false
	}
	body, err := appendFrameBody(k.buf[:0], f, VersionAuth)
	if err != nil {
		return false
	}
	return subtle.ConstantTimeCompare(k.tag(body), f.Tag[:]) == 1
}
