package wire

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"testing"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The RFC 4493 §4 key and 64-byte message; the four examples MAC its
// 0-, 16-, 40- and 64-byte prefixes.
const (
	rfc4493Key = "2b7e151628aed2a6abf7158809cf4f3c"
	rfc4493Msg = "6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710"
)

// The tag function is AES-128-CMAC: the subkeys and all four
// known-answer vectors of RFC 4493 §4.
func TestAuthCMACKnownAnswers(t *testing.T) {
	k, err := newAuthKey(unhex(t, rfc4493Key))
	if err != nil {
		t.Fatal(err)
	}
	if want := unhex(t, "fbeed618357133667c85e08f7236a8de"); !bytes.Equal(k.k1[:], want) {
		t.Fatalf("K1 = %x, want %x", k.k1, want)
	}
	if want := unhex(t, "f7ddac306ae266ccf90bc11ee46d513b"); !bytes.Equal(k.k2[:], want) {
		t.Fatalf("K2 = %x, want %x", k.k2, want)
	}
	msg := unhex(t, rfc4493Msg)
	for _, tc := range []struct {
		n   int
		tag string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	} {
		if got, want := k.tag(msg[:tc.n]), unhex(t, tc.tag); !bytes.Equal(got, want) {
			t.Errorf("len %d: tag = %x, want %x", tc.n, got, want)
		}
	}
	if _, err := newAuthKey(make([]byte, 15)); err == nil {
		t.Error("15-byte key accepted")
	}
}

// refCMAC is RFC 4493 written the slow, obvious way: byte-wise subkey
// generation with the conditional Rb fold (§2.3), the last block padded
// and masked (§2.4), then the standard library's CBC mode from a zero IV
// over the whole message, keeping the final block.
func refCMAC(t testing.TB, key, msg []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	shift := func(in []byte) []byte {
		out := make([]byte, len(in))
		for i := range in {
			out[i] = in[i] << 1
			if i+1 < len(in) {
				out[i] |= in[i+1] >> 7
			}
		}
		if in[0]&0x80 != 0 {
			out[len(out)-1] ^= 0x87
		}
		return out
	}
	l := make([]byte, aes.BlockSize)
	block.Encrypt(l, l)
	k1 := shift(l)
	k2 := shift(k1)

	m := bytes.Clone(msg)
	mask := k1
	if len(m) == 0 || len(m)%aes.BlockSize != 0 {
		m = append(m, 0x80)
		for len(m)%aes.BlockSize != 0 {
			m = append(m, 0)
		}
		mask = k2
	}
	last := m[len(m)-aes.BlockSize:]
	for i := range last {
		last[i] ^= mask[i]
	}
	cipher.NewCBCEncrypter(block, make([]byte, aes.BlockSize)).CryptBlocks(m, m)
	return m[len(m)-aes.BlockSize:]
}

// Every body length from empty through four blocks, under two keys,
// agrees with the reference — the one- and two-block lengths frames
// actually use and the block boundaries around them.
func TestAuthCMACMatchesReference(t *testing.T) {
	msg := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(i*37 + 11)
	}
	for _, key := range [][]byte{unhex(t, rfc4493Key), bytes.Repeat([]byte{0xa5}, 16)} {
		k, err := newAuthKey(key)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= len(msg); n++ {
			if got, want := k.tag(msg[:n]), refCMAC(t, key, msg[:n]); !bytes.Equal(got, want) {
				t.Fatalf("key %x len %d: tag = %x, reference %x", key, n, got, want)
			}
		}
	}
}

// The 10* padding must not collide with a message that already ends in
// those bytes: a 15-byte body, the same body plus 0x80, and that plus a
// zero all pad to related blocks, and only the K1/K2 split keeps their
// tags apart (raw CBC-MAC gives the first two the same tag).
func TestAuthCMACPaddingBoundary(t *testing.T) {
	k := pairKey(t, 7, 1)
	// One block, and the two-block boundary frames with payloads reach.
	for _, full := range []int{16, 32} {
		m := append(bytes.Repeat([]byte{0x42}, full-1), 0x80, 0x00)
		tags := map[string]int{}
		for n := full - 1; n <= full+1; n++ {
			tag := string(k.tag(m[:n]))
			if prev, dup := tags[tag]; dup {
				t.Fatalf("bodies of %d and %d bytes share tag %x", prev, n, tag)
			}
			tags[tag] = n
		}
	}
}
