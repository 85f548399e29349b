package core

import "peregrine/internal/bitset"

// Sorted-set primitives over adjacency lists. The engine's inner loops
// are intersections and differences of sorted uint32 slices (paper §4.1:
// "identifying matches using simple graph traversals and adjacency list
// intersection operations"), so these are written as tuned kernels:
// uint32-specialized, closure-free (no sort.Search in any hot loop),
// allocation-free (callers pass destination buffers reused across
// recursion levels), and selected adaptively by size skew — a
// branch-lean linear merge for comparable lengths, galloping when one
// list dwarfs the other, and bitset paths when a hub vertex's adjacency
// is available in compressed-bitmap form (see graph.Graph.HubBits).
//
// # Result ownership
//
// intersectListsInto / intersectSetsInto have a split ownership
// contract that every caller must respect:
//
//   - With a SINGLE input list the result is a clipped VIEW into the
//     caller's list — for the engine, a view into graph adjacency
//     storage, possibly an mmap-backed read-only mapping. Writing into
//     it corrupts the graph (or faults on a read-only mapping).
//   - With two or more lists the result is written into buf and owns
//     no graph storage; it may grow past buf's capacity, in which case
//     the caller may adopt the grown buffer for reuse.
//
// Callers that need a uniformly writable result must copy the
// single-list case; the engine instead treats every candidate set as
// read-only (see multiWorker.descend and worker.candidates).

// unbounded marks an absent id bound; ids are uint32 so int64 sentinels
// never collide with real values.
const (
	noLo = int64(-1)
	noHi = int64(1) << 40
)

// Kernel-selection thresholds. These are deliberately named constants
// so the selection policy is testable on its own (see
// TestKernelSelection* in setops_test.go).
const (
	// gallopRatio is the length skew |big|/(|small|+1) at which probing
	// each element of the small list into the big one (galloping
	// exponential search) beats the linear merge.
	gallopRatio = 16

	// bitsetFilterRatio is the skew at which membership-filtering the
	// small list through the big list's hub bitmap beats galloping over
	// the big sorted list.
	bitsetFilterRatio = 8

	// bitsetAndMin is the minimum driver length at which intersecting
	// two hub bitmaps chunk-by-chunk (bitset∩bitset) is preferred over
	// filtering one through the other: below it the driver is small
	// enough that per-element filtering wins.
	bitsetAndMin = 2048
)

// lowerBound returns the least index i with s[i] >= x — a
// closure-free sort.SearchInts specialized to uint32.
func lowerBound(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the least index i with s[i] > x.
func upperBound(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopLowerBound returns the least index i >= from with s[i] >= x,
// probing exponentially from `from` before binary-searching the
// bracketed range. Callers advance `from` monotonically, so the cost
// per probe is logarithmic in the gap since the last match rather than
// in len(s).
func gallopLowerBound(s []uint32, from int, x uint32) int {
	if from >= len(s) || s[from] >= x {
		return from
	}
	lo, step := from, 1
	for lo+step < len(s) && s[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(s) {
		hi = len(s)
	}
	lo++ // s[lo] < x already established
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clip returns the subslice of sorted s whose elements x satisfy
// lo < x < hi (both bounds exclusive). The unbounded case — both
// sentinels, e.g. every anti-vertex common-neighborhood check — returns
// s itself without any search.
func clip(s []uint32, lo, hi int64) []uint32 {
	if lo == noLo && hi == noHi {
		return s
	}
	i := 0
	if lo != noLo {
		i = upperBound(s, uint32(lo))
	}
	j := len(s)
	if hi != noHi {
		j = lowerBound(s, uint32(hi))
	}
	if i >= j {
		return s[:0]
	}
	return s[i:j]
}

// intersectMerge writes the intersection of sorted a and b into dst by
// linear merge. The three-way compare is a plain branch chain: measured
// against a "branch-free" two-condition variant (both advances as
// independent <= comparisons) the branchy form is consistently faster
// here — the advance direction is predictable enough that speculation
// beats the extra executed compares.
func intersectMerge(dst []uint32, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x < y {
			i++
		} else if x > y {
			j++
		} else {
			dst = append(dst, x)
			i++
			j++
		}
	}
	return dst
}

// intersectGallop writes the intersection of sorted small and big into
// dst by galloping each element of small through big from the previous
// position — the kernel for hub-vs-leaf skew, where |big| >> |small|.
func intersectGallop(dst []uint32, small, big []uint32) []uint32 {
	j := 0
	for _, x := range small {
		j = gallopLowerBound(big, j, x)
		if j == len(big) {
			break
		}
		if big[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}

// intersect2Into writes the intersection of sorted a and b into dst and
// returns it, choosing the kernel by length skew: galloping when the
// lengths are badly skewed (the high-degree hub vertices of power-law
// graphs), linear merge otherwise.
func intersect2Into(dst []uint32, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b)/(len(a)+1) >= gallopRatio {
		return intersectGallop(dst, a, b)
	}
	return intersectMerge(dst, a, b)
}

// intersectInPlace retains only the elements of dst present in sorted b,
// compacting dst forward. Like intersect2Into it adapts to skew:
// galloping probes when b dwarfs dst, a linear scan otherwise.
func intersectInPlace(dst []uint32, b []uint32) []uint32 {
	if len(dst) == 0 || len(b) == 0 {
		return dst[:0]
	}
	w := 0
	if len(b)/(len(dst)+1) >= gallopRatio {
		j := 0
		for _, x := range dst {
			j = gallopLowerBound(b, j, x)
			if j == len(b) {
				break
			}
			if b[j] == x {
				dst[w] = x
				w++
				j++
			}
		}
		return dst[:w]
	}
	j := 0
	for _, x := range dst {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) {
			break
		}
		if b[j] == x {
			dst[w] = x
			w++
			j++
		}
	}
	return dst[:w]
}

// containsSorted reports whether sorted s contains x.
func containsSorted(s []uint32, x uint32) bool {
	i := lowerBound(s, x)
	return i < len(s) && s[i] == x
}

// setKernel names the two-list kernel chooseKernel selects.
type setKernel uint8

const (
	kernelMerge setKernel = iota
	kernelGallop
	kernelBitsetFilter
	kernelBitsetAnd
)

// chooseKernel picks the kernel for intersecting a driver of length
// small against a list of length big. driverBits/listBits report hub
// bitmap availability for each side; bounded reports whether the driver
// was clipped to a symmetry-breaking range (a clipped driver no longer
// corresponds to its own bitmap, so bitset∩bitset is only sound
// unbounded).
func chooseKernel(small, big int, driverBits, listBits, bounded bool) setKernel {
	if listBits {
		if !bounded && driverBits && small >= bitsetAndMin {
			return kernelBitsetAnd
		}
		if big/(small+1) >= bitsetFilterRatio {
			return kernelBitsetFilter
		}
	}
	if big/(small+1) >= gallopRatio {
		return kernelGallop
	}
	return kernelMerge
}

// intersectListsInto intersects all sorted lists, clipped to (lo, hi),
// writing the result into buf (whose contents are overwritten). lists
// must be non-empty.
//
// Ownership: for a SINGLE list the result is a clipped view of that
// list — no copy, and the caller must treat it as read-only (for the
// engine it aliases graph adjacency storage, possibly an mmap-backed
// read-only mapping). For two or more lists the result is caller-owned
// buf storage. See the package comment.
func intersectListsInto(buf []uint32, lists [][]uint32, lo, hi int64) []uint32 {
	return intersectSetsInto(buf, lists, nil, lo, hi)
}

// intersectSetsInto is intersectListsInto with optional hub bitmaps:
// when bits is non-nil, bits[i] (which may be nil) is the compressed
// bitmap form of lists[i], and the kernel selection will route skewed
// operands through the bitset∩sorted and bitset∩bitset paths. The
// single-list ownership contract of intersectListsInto applies
// unchanged.
func intersectSetsInto(buf []uint32, lists [][]uint32, bits []*bitset.Bitmap, lo, hi int64) []uint32 {
	// Start from the shortest list: intersection size is bounded by it.
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	cur := clip(lists[shortest], lo, hi)
	if len(lists) == 1 {
		return cur // aliased view — see the ownership contract
	}
	if len(cur) == 0 {
		return buf[:0]
	}
	bounded := lo != noLo || hi != noHi
	var curBits *bitset.Bitmap
	if bits != nil {
		curBits = bits[shortest]
	}
	out := buf[:0]
	first := true
	for i, l := range lists {
		if i == shortest {
			continue
		}
		var bi *bitset.Bitmap
		if bits != nil {
			bi = bits[i]
		}
		if first {
			switch chooseKernel(len(cur), len(l), curBits != nil, bi != nil, bounded) {
			case kernelBitsetAnd:
				out = curBits.AndSortedInto(buf[:0], bi)
			case kernelBitsetFilter:
				out = bi.FilterSortedInto(buf[:0], cur)
			case kernelGallop:
				out = intersectGallop(buf[:0], cur, l)
			default:
				out = intersectMerge(buf[:0], cur, l)
			}
			first = false
		} else if bi != nil && len(l)/(len(out)+1) >= bitsetFilterRatio {
			// In-place membership filter: the write index never passes
			// the read index (see bitset.FilterSortedInto).
			out = bi.FilterSortedInto(out[:0], out)
		} else {
			out = intersectInPlace(out, l)
		}
		if len(out) == 0 {
			return out
		}
	}
	return out
}
