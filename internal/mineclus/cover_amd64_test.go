package mineclus

import (
	"math"
	"math/rand"
	"testing"
)

// TestWindowWordsMatchesGo requires the AVX-512F kernel to set every word
// exactly as the Go body does, and to write no word past dst. The keys mix
// random ones, the keys of ±Inf, NaNs and ±0, and keys at lo-1, lo, lo+span
// and lo+span+1; the windows include span 0, span MaxUint64, windows that
// wrap past MaxUint64 and keyWindow's own; the lengths run from 0 to 1,000
// keys.
func TestWindowWordsMatchesGo(t *testing.T) {
	if !hasAVX512F {
		t.Skip("the CPU lacks AVX-512F or the OS does not enable its state: windowWords runs its Go body, which TestCoverMatchesPredicate checks")
	}
	rng := rand.New(rand.NewSource(17))
	specials := []uint64{keyOf(math.Inf(1)), keyOf(math.Inf(-1)), keyOf(math.NaN()), keyOf(-math.NaN()),
		keyOf(0), keyOf(math.Copysign(0, -1)), 0, math.MaxUint64}
	window := func() (lo, span uint64) {
		switch rng.Intn(5) {
		case 0:
			return rng.Uint64(), 0
		case 1:
			return specials[rng.Intn(len(specials))], math.MaxUint64
		case 2:
			return rng.Uint64(), rng.Uint64()
		default:
			lo, span, _ := keyWindow(rng.Float64()*1000, rng.Float64()*100)
			return lo, span
		}
	}
	const sentinel = 0x5a5a5a5a5a5a5a5a
	for n := 0; n <= 1000; n++ {
		lo, span := window()
		keys := make([]uint64, n)
		for i := range keys {
			switch rng.Intn(4) {
			case 0:
				keys[i] = rng.Uint64()
			case 1:
				keys[i] = specials[rng.Intn(len(specials))]
			case 2:
				keys[i] = []uint64{lo - 1, lo, lo + span, lo + span + 1}[rng.Intn(4)]
			default:
				keys[i] = keyOf(rng.Float64() * 1000)
			}
		}
		got := make([]uint64, n/64+1)
		want := make([]uint64, n/64)
		got[n/64] = sentinel
		windowWordsAVX512F(got[:n/64], keys[:n/64*64], lo, span)
		windowWordsGo(want, keys, lo, span)
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%d keys, window [%#x, +%#x]: word %d is %064b, Go body %064b", n, lo, span, k, got[k], w)
			}
		}
		if got[n/64] != sentinel {
			t.Fatalf("%d keys: the kernel wrote past dst", n)
		}
	}
}
