// Package mem defines the address arithmetic shared by every component of
// the M5 reproduction: physical addresses, page frame numbers, word (cache
// line) numbers, and address ranges.
//
// The model follows §3 of the paper: a 48-bit physical address space, 4KB
// pages, and 64B words (cache lines). DRAM is accessed at word granularity
// (PA[47:6]); the page frame number of a 4KB page is PA[47:12].
package mem

import "fmt"

// Geometry constants for the simulated machine.
const (
	// PhysAddrBits is the width of the physical address space (§3).
	PhysAddrBits = 48

	// PageShift is log2 of the page size (4KB pages).
	PageShift = 12
	// PageSize is the size of a base page in bytes.
	PageSize = 1 << PageShift

	// WordShift is log2 of the word (cache line) size (64B).
	WordShift = 6
	// WordSize is the size of a word in bytes.
	WordSize = 1 << WordShift

	// WordsPerPage is the number of 64B words in a 4KB page.
	WordsPerPage = PageSize / WordSize // 64

	// HugePageShift is log2 of a 2MB huge page, used by the huge-page
	// aggregation extension (§8).
	HugePageShift = 21
	// HugePageSize is the size of a 2MB huge page in bytes.
	HugePageSize = 1 << HugePageShift
)

// PhysAddr is a byte-granularity physical address.
type PhysAddr uint64

// PFN is a 4KB page frame number: PhysAddr >> PageShift (PA[47:12]).
type PFN uint64

// WordNum is a 64B word number: PhysAddr >> WordShift (PA[47:6]). This is
// the granularity at which DRAM is accessed and at which WAC/HWT count.
type WordNum uint64

// HugePFN is a 2MB huge-page frame number: PhysAddr >> HugePageShift.
type HugePFN uint64

// MaxPhysAddr is the first address beyond the modelled physical space.
const MaxPhysAddr PhysAddr = 1 << PhysAddrBits

// Page returns the PFN containing the address.
//
//m5:hotpath
func (a PhysAddr) Page() PFN { return PFN(a >> PageShift) }

// Word returns the word number containing the address.
//
//m5:hotpath
func (a PhysAddr) Word() WordNum { return WordNum(a >> WordShift) }

// HugePage returns the 2MB huge-page frame number containing the address.
func (a PhysAddr) HugePage() HugePFN { return HugePFN(a >> HugePageShift) }

// PageOffset returns the byte offset of the address within its 4KB page.
func (a PhysAddr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

// WordIndex returns the index (0..63) of the address's word within its page.
// This is the bit position used in the Nominator's 64-bit hot-word masks.
func (a PhysAddr) WordIndex() uint { return uint(a>>WordShift) & (WordsPerPage - 1) }

// String formats the address in hex.
func (a PhysAddr) String() string { return fmt.Sprintf("0x%012x", uint64(a)) }

// Addr returns the first byte address of the page frame.
//
//m5:hotpath
func (p PFN) Addr() PhysAddr { return PhysAddr(p) << PageShift }

// Word returns the word number of the i-th word (0..63) of the page.
func (p PFN) Word(i uint) WordNum {
	return WordNum(uint64(p)<<(PageShift-WordShift) | uint64(i&(WordsPerPage-1)))
}

// HugePage returns the 2MB huge page containing this 4KB frame.
func (p PFN) HugePage() HugePFN { return HugePFN(p >> (HugePageShift - PageShift)) }

// String formats the PFN in hex.
func (p PFN) String() string { return fmt.Sprintf("pfn:0x%x", uint64(p)) }

// Addr returns the first byte address of the word.
func (w WordNum) Addr() PhysAddr { return PhysAddr(w) << WordShift }

// Page returns the PFN of the page containing the word.
func (w WordNum) Page() PFN { return PFN(w >> (PageShift - WordShift)) }

// Index returns the word's index (0..63) within its page.
func (w WordNum) Index() uint { return uint(w) & (WordsPerPage - 1) }

// Addr returns the first byte address of the huge page.
func (h HugePFN) Addr() PhysAddr { return PhysAddr(h) << HugePageShift }

// FirstPFN returns the first 4KB frame of the huge page.
func (h HugePFN) FirstPFN() PFN { return PFN(h) << (HugePageShift - PageShift) }

// PagesPerHugePage is the number of 4KB frames in a 2MB huge page.
const PagesPerHugePage = HugePageSize / PageSize // 512
