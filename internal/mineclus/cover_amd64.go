package mineclus

// hasAVX512F reports whether the CPU has AVX-512F and the OS saves its
// state: OSXSAVE, XCR0 enabling the SSE, AVX, opmask and both upper ZMM
// states (mask 0xE6), and CPUID leaf 7 EBX bit 16.
var hasAVX512F = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}()

// windowWords sets dst[k] to windowBits(keys[64k:64k+64], lo, span) for
// every k, on the AVX-512F kernel when the CPU has one. keys must hold at
// least 64·len(dst) keys.
func windowWords(dst, keys []uint64, lo, span uint64) {
	if !hasAVX512F {
		windowWordsGo(dst, keys, lo, span)
		return
	}
	windowWordsAVX512F(dst, keys[:64*len(dst)], lo, span)
}

//go:noescape
func windowWordsAVX512F(dst, keys []uint64, lo, span uint64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
