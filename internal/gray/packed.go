// Word-packed LUT application. A LUT remap reads one byte and writes
// one byte, so the scalar loop spends most of its time on per-byte
// loads and stores. The packed kernel moves pixels eight at a time:
// one uint64 load, eight in-register byte extractions through the LUT,
// one uint64 store. The per-byte table indexing is unchanged, so the
// output is byte-identical to the scalar loop on every input. It is
// the only LUT remap kernel: every gray and color remap in transform
// and rgb, sharded or not, and the zoned rect apply run through it.
package gray

import "encoding/binary"

// ApplyLUTPacked remaps src through lut into dst eight pixels per
// memory transaction. dst and src must have equal length; dst may
// alias src (each output byte depends only on the same input byte,
// and the word store happens after its word load). The tail of a
// length not divisible by 8 is remapped scalar.
//
//hebs:noalloc
func ApplyLUTPacked(dst, src []uint8, lut *[256]uint8) {
	// Advancing both slices (rather than indexing at i) lets the
	// compiler drop the per-word bounds checks, which keeps the kernel
	// level with the scalar loop on small frames.
	dst = dst[:len(src)]
	for len(src) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		o := uint64(lut[w&0xff]) |
			uint64(lut[w>>8&0xff])<<8 |
			uint64(lut[w>>16&0xff])<<16 |
			uint64(lut[w>>24&0xff])<<24 |
			uint64(lut[w>>32&0xff])<<32 |
			uint64(lut[w>>40&0xff])<<40 |
			uint64(lut[w>>48&0xff])<<48 |
			uint64(lut[w>>56])<<56
		binary.LittleEndian.PutUint64(dst, o)
		src, dst = src[8:], dst[8:]
	}
	for i, p := range src {
		dst[i] = lut[p]
	}
}
