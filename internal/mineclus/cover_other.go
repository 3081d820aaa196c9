//go:build !amd64

package mineclus

// windowWords sets dst[k] to windowBits(keys[64k:64k+64], lo, span) for
// every k. keys must hold at least 64·len(dst) keys.
func windowWords(dst, keys []uint64, lo, span uint64) {
	windowWordsGo(dst, keys, lo, span)
}
