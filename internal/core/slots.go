package core

import "math/bits"

// slotSet is a bitset over a bundle window's slots: slot i is bit i&63 of
// word i>>6. Four words cover the widest window, K = 256 under the range
// encoding. Bundle assembly works on these sets with word operations
// instead of per-slot arrays.
type slotSet [4]uint64

// allSlots has every slot of every window set.
var allSlots = slotSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

func (s *slotSet) add(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s *slotSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// addRange adds slots [lo, lo+n).
func (s *slotSet) addRange(lo, n int) {
	for i, end := lo, lo+n; i < end; {
		b := i & 63
		span := min(64-b, end-i)
		s[i>>6] |= ^uint64(0) >> (64 - span) << b
		i += span
	}
}

// count returns the number of slots in the set.
func (s *slotSet) count() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) +
		bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// andNot returns the slots of s that are not in o.
func (s *slotSet) andNot(o *slotSet) slotSet {
	return slotSet{s[0] &^ o[0], s[1] &^ o[1], s[2] &^ o[2], s[3] &^ o[3]}
}

// window returns slots [off, off+k) renumbered to [0, k), where k is a
// power of two and off a multiple of it: a K-aligned sub-window of a
// wider aligned window.
func (s *slotSet) window(off, k int) slotSet {
	var out slotSet
	if k >= 64 {
		copy(out[:k>>6], s[off>>6:])
		return out
	}
	out[0] = s[off>>6] >> (off & 63) & (1<<k - 1)
	return out
}

// runAround returns the bounds of the maximal run of present slots
// through slot, which must itself be present.
func (s *slotSet) runAround(slot int) (lo, hi int) {
	for w, b := slot>>6, slot&63; ; w, b = w-1, 63 {
		// Present slots at and below bit b of word w.
		n := bits.LeadingZeros64(^(s[w] << (63 - b)))
		lo = w<<6 + b - n + 1
		if n <= b || w == 0 {
			break
		}
	}
	for w, b := slot>>6, slot&63; ; w, b = w+1, 0 {
		// Present slots at and above bit b of word w.
		n := bits.TrailingZeros64(^(s[w] >> b))
		hi = w<<6 + b + n - 1
		if n < 64-b || w == len(s)-1 {
			break
		}
	}
	return lo, hi
}

// groups returns the slot groups (8 slots each, one PTE cache line) that
// hold at least one slot of the set.
func (s *slotSet) groups() uint32 {
	return uint32(nonzeroBytes(s[0])) | uint32(nonzeroBytes(s[1]))<<8 |
		uint32(nonzeroBytes(s[2]))<<16 | uint32(nonzeroBytes(s[3]))<<24
}

// groupSlots returns every slot of the groups set in g.
func groupSlots(g uint32) slotSet {
	var s slotSet
	for ; g != 0; g &= g - 1 {
		i := bits.TrailingZeros32(g)
		s[i>>3] |= 0xff << (8 * (i & 7))
	}
	return s
}

// nonzeroBytes sets result bit i when byte i of w is nonzero: fold each
// byte's bits into its lowest bit, then gather the eight low bits into
// the top byte with one multiply (every partial product lands on a
// distinct bit, so nothing carries).
func nonzeroBytes(w uint64) uint8 {
	w |= w >> 4
	w |= w >> 2
	w |= w >> 1
	w &= 0x0101010101010101
	return uint8(w * 0x0102040810204080 >> 56)
}
