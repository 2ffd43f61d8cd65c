package wire

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestChecksumMatchesIEEE pins checksum against crc32.ChecksumIEEE:
// every length a frame can have, many random bodies at each length the
// codec emits (13 for probes, empty replies and BYEs; 21 for DCPP
// replies and announces; 26 for leave notices; 29 for SAPP replies),
// and the 13-byte bodies that isolate one table entry each.
func TestChecksumMatchesIEEE(t *testing.T) {
	check := func(b []byte) {
		t.Helper()
		if got, want := checksum(b), crc32.ChecksumIEEE(b); got != want {
			t.Fatalf("checksum(%x) = %08x, crc32.ChecksumIEEE = %08x", b, got, want)
		}
	}
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= MaxFrameSize; n++ {
		b := make([]byte, n)
		check(b)
		rng.Read(b)
		check(b)
	}
	for _, n := range []int{shortBody, 21, 26, 29} {
		b := make([]byte, n)
		for i := 0; i < 10000; i++ {
			rng.Read(b)
			check(b)
		}
	}
	for bit := 0; bit < shortBody*8; bit++ {
		b := make([]byte, shortBody)
		b[bit/8] = 1 << (bit % 8)
		check(b)
	}
	check(bytes.Repeat([]byte{0xFF}, shortBody))
}
