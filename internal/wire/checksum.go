package wire

import "hash/crc32"

// shortBody is the checksummed length of a probe, an empty reply and a
// BYE: a bare header. hash/crc32 runs byte at a time below 16 bytes,
// so these, the commonest frames, would pay the most per byte.
const shortBody = headerSize

// IEEE CRC-32 is affine over GF(2): for bodies of one length,
// crc(a⊕b) = crc(a) ⊕ crc(b) ⊕ crc(0). A shortBody-byte body b
// therefore checksums as shortZero ⊕ shortTable[0][b₀] ⊕ … ⊕
// shortTable[12][b₁₂], where shortZero is the checksum of the all-zero
// body and shortTable[i][x] is the checksum of x at position i (zeros
// elsewhere) with shortZero taken back out. TestChecksumMatchesIEEE
// checks the result against crc32.ChecksumIEEE.
var (
	shortZero  uint32
	shortTable [shortBody][256]uint32
)

func init() {
	// Byte-at-a-time over crc32.IEEETable, the standard library's own
	// table, built when hash/crc32 loads. crc32.ChecksumIEEE would give
	// the same sums, but its first call puts an 8 KB slicing table on
	// the heap of every process that imports this package, checksum or
	// not.
	crc := func(b []byte) uint32 {
		c := ^uint32(0)
		for _, x := range b {
			c = crc32.IEEETable[byte(c)^x] ^ c>>8
		}
		return ^c
	}
	var b [shortBody]byte
	shortZero = crc(b[:])
	for i := range shortTable {
		for x := 1; x < 256; x++ {
			b[i] = byte(x)
			shortTable[i][x] = crc(b[:]) ^ shortZero
		}
		b[i] = 0
	}
}

// checksum is the IEEE CRC-32 of a v1 frame body: thirteen independent
// table loads for a shortBody-byte body, crc32.ChecksumIEEE for every
// other length (the codec's longer bodies, 21 to 29 bytes, are past
// the standard library's 16-byte cutoff and already run its
// slicing-by-8 kernel).
func checksum(b []byte) uint32 {
	if len(b) != shortBody {
		return crc32.ChecksumIEEE(b)
	}
	_ = b[12]
	t := &shortTable
	return shortZero ^
		t[0][b[0]] ^ t[1][b[1]] ^ t[2][b[2]] ^ t[3][b[3]] ^
		t[4][b[4]] ^ t[5][b[5]] ^ t[6][b[6]] ^ t[7][b[7]] ^
		t[8][b[8]] ^ t[9][b[9]] ^ t[10][b[10]] ^ t[11][b[11]] ^
		t[12][b[12]]
}
