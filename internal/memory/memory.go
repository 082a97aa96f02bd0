// Package memory implements the shared global address space of the
// fine-grain DSM and Tempest's fine-grain access control: every node
// holds a local image of the (page-lazily populated) address space plus
// a per-block access tag (invalid / readonly / readwrite). Tag checks
// are performed by the executor on every shared load and store; tag
// changes and data movement are performed by the coherence protocol.
//
// Addresses are byte offsets into the shared segment. Pages are assigned
// round-robin to home nodes, so an array's owner (from its HPF
// distribution) is generally not its home — exactly the situation the
// paper's mk_writable step exists to handle.
//
// The host populates images lazily too. On Linux an image is an
// anonymous private mapping outside the Go heap: the kernel zero-fills
// a page the first time the node touches it, so a page the node never
// touches costs no host memory, and a cleanup unmaps the image once its
// NodeMem is unreachable, or Release unmaps it earlier. Hence the
// lifetime rule on NodeMem. Under the race detector, which watches only
// Go-heap memory, and on other systems an image is an ordinary zeroed
// slice. Mapped images are
// invisible to the GC pacer, so the heap it paces is smaller and
// collections come more often.
package memory

import (
	"encoding/binary"
	"fmt"
	"math"
	mbits "math/bits"

	"hpfdsm/internal/config"
)

// ImagesMapped reports whether node images come from anonymous mappings
// (Linux without the race detector) rather than the Go heap.
const ImagesMapped = imagesMapped

// Tag is a block's fine-grain access tag.
type Tag uint8

const (
	Invalid Tag = iota
	ReadOnly
	ReadWrite
)

func (t Tag) String() string {
	switch t {
	case Invalid:
		return "invalid"
	case ReadOnly:
		return "readonly"
	case ReadWrite:
		return "readwrite"
	default:
		return fmt.Sprintf("Tag(%d)", uint8(t))
	}
}

// Space is the shared segment layout: block and page geometry and the
// home-node assignment.
type Space struct {
	mc   config.Machine
	size int // current segment size in bytes (page aligned)

	// Cached geometry for the executor's per-access fast paths: block
	// and page arithmetic reduce to shifts when the sizes are powers of
	// two (shift == 0 on the rare non-power-of-two configuration, which
	// falls back to division).
	blockShift uint
	pageShift  uint
}

// log2of returns log2(n) when n is a power of two, else 0.
func log2of(n int) uint {
	if n > 0 && n&(n-1) == 0 {
		return uint(mbits.TrailingZeros(uint(n)))
	}
	return 0
}

// NewSpace returns an empty shared segment for machine mc.
func NewSpace(mc config.Machine) *Space {
	if err := mc.Validate(); err != nil {
		panic(err)
	}
	return &Space{
		mc:         mc,
		blockShift: log2of(mc.BlockSize),
		pageShift:  log2of(mc.PageSize),
	}
}

// Machine returns the machine configuration the space was built for.
func (s *Space) Machine() config.Machine { return s.mc }

// Size returns the segment size in bytes.
func (s *Space) Size() int { return s.size }

// BlockSize returns the coherence unit in bytes.
func (s *Space) BlockSize() int { return s.mc.BlockSize }

// NumBlocks returns the number of coherence blocks in the segment.
func (s *Space) NumBlocks() int { return s.size / s.mc.BlockSize }

// NumPages returns the number of pages in the segment.
func (s *Space) NumPages() int { return s.size / s.mc.PageSize }

// Alloc reserves bytes of shared memory, page aligned (so distinct
// arrays never share a page, let alone a block), and returns the base
// address.
func (s *Space) Alloc(name string, bytes int) int {
	if bytes <= 0 {
		panic(fmt.Sprintf("memory: bad allocation size %d for %q", bytes, name))
	}
	base := s.size
	pg := s.mc.PageSize
	s.size += (bytes + pg - 1) / pg * pg
	return base
}

// Block returns the block number containing addr.
func (s *Space) Block(addr int) int {
	if s.blockShift != 0 {
		return addr >> s.blockShift
	}
	return addr / s.mc.BlockSize
}

// Page returns the page number containing addr.
func (s *Space) Page(addr int) int {
	if s.pageShift != 0 {
		return addr >> s.pageShift
	}
	return addr / s.mc.PageSize
}

// Home returns the home node of addr's page (round-robin assignment).
func (s *Space) Home(addr int) int { return s.Page(addr) % s.mc.Nodes }

// HomeOfBlock returns the home node of block b.
func (s *Space) HomeOfBlock(b int) int { return s.Home(b * s.mc.BlockSize) }

// HomeSlot returns block b's home node and b's index among the blocks
// homed there. Pages are dealt round-robin, so a home's k-th page holds
// its slots from k times the blocks in a page on, and ascending slots
// are ascending blocks: a table of NumHomed entries indexed by slot is a
// home's dense per-block state.
func (s *Space) HomeSlot(b int) (home, slot int) {
	bpp := s.mc.PageSize / s.mc.BlockSize
	pg := b / bpp
	return pg % s.mc.Nodes, pg/s.mc.Nodes*bpp + b%bpp
}

// HomedBlock returns the block at slot of home's table: HomeSlot's
// inverse.
func (s *Space) HomedBlock(home, slot int) int {
	bpp := s.mc.PageSize / s.mc.BlockSize
	return (slot/bpp*s.mc.Nodes+home)*bpp + slot%bpp
}

// NumHomed returns the number of blocks homed at node home.
func (s *Space) NumHomed(home int) int {
	return (s.NumPages() + s.mc.Nodes - 1 - home) / s.mc.Nodes * (s.mc.PageSize / s.mc.BlockSize)
}

// NodeMem is one node's image of the shared segment: data, per-block
// tags, per-block dirty-word masks (used by the multiple-writer
// protocol), the per-page mapped bits (remote pages pay a mapping cost
// on first touch) and the per-page cards.
//
// A card is the write barrier of the coherence audit: every mutator
// that can give a block dirty words or a readonly tag sets its page's
// card (SetTag to ReadOnly, WriteF64, MarkDirtyRun, MarkAllDirty and
// SetDirtyMask with a nonzero mask), and nothing here clears one. The
// audit visits only the pages whose card is set, and clears a card once
// every block under it is clean at this node, so what it reads is what
// some node holds rather than the whole segment.
//
// Lifetime rule: the image may live outside the Go heap and is released
// when the NodeMem becomes unreachable, or earlier by Release, so a
// slice of it (BlockData, Bytes) may be held only by objects reachable
// from the cluster that owns this NodeMem, and never past it or past
// Release. Whatever must outlive the cluster copies the bytes out.
type NodeMem struct {
	sp     *Space
	id     int
	data   []byte
	tags   []Tag
	dirty  []uint16 // bit i set => word i of block modified locally
	mapped []bool
	cards  []bool // per page: a block under it may be dirty or readonly

	// Cached block and page geometry so the per-access check/translate
	// path never chases m.sp.mc and divides by a shift where possible.
	bs     int  // block size in bytes
	bshift uint // log2(bs), 0 if bs is not a power of two
	ps     int  // page size in bytes
	pshift uint // log2(ps), 0 if ps is not a power of two

	unmap imageCleanup // stops the image's unmapping cleanup (Release)
}

// NewNodeMem creates node id's memory image. Blocks on pages homed at
// this node start ReadWrite (home memory is the backing store and the
// directory starts Idle); everything else starts Invalid and unmapped.
func NewNodeMem(sp *Space, id int) *NodeMem {
	nb := sp.NumBlocks()
	np := sp.NumPages()
	pages := make([]bool, 2*np) // mapped bits, then cards
	nm := &NodeMem{
		sp:     sp,
		id:     id,
		tags:   make([]Tag, nb),
		dirty:  make([]uint16, nb),
		mapped: pages[:np:np],
		cards:  pages[np:],
		bs:     sp.mc.BlockSize,
		bshift: log2of(sp.mc.BlockSize),
		ps:     sp.mc.PageSize,
		pshift: log2of(sp.mc.PageSize),
	}
	nm.data = newImage(nm, sp.size)
	bpp := sp.mc.PageSize / sp.mc.BlockSize
	for pg := 0; pg < np; pg++ {
		if sp.Home(pg*sp.mc.PageSize) == id {
			nm.mapped[pg] = true
			for b := pg * bpp; b < (pg+1)*bpp; b++ {
				nm.tags[b] = ReadWrite
			}
		}
	}
	return nm
}

// Release unmaps the node image now rather than when the NodeMem
// becomes unreachable, and stops the cleanup that would. After it the
// image is gone: any access to the node's data panics (an index out of
// range, not a fault), while the tags and the other tables stay
// readable. An image on the Go heap is left to the collector, so there
// Release does nothing.
func (m *NodeMem) Release() { releaseImage(m) }

// ID returns the owning node id.
func (m *NodeMem) ID() int { return m.id }

// Space returns the shared segment layout.
func (m *NodeMem) Space() *Space { return m.sp }

// Tag returns block b's access tag.
func (m *NodeMem) Tag(b int) Tag { return m.tags[b] }

// SetTag sets block b's access tag.
func (m *NodeMem) SetTag(b int, t Tag) {
	m.tags[b] = t
	if t == ReadOnly {
		m.cards[m.page(b*m.bs)] = true
	}
}

// Tags returns the per-block tag table, indexed by block (aliasing the
// node's state: callers read it and must not write it).
func (m *NodeMem) Tags() []Tag { return m.tags }

// DirtyMasks returns the per-block dirty-word masks, indexed by block
// (aliasing the node's state: callers read it and must not write it).
func (m *NodeMem) DirtyMasks() []uint16 { return m.dirty }

// Cards returns the per-page card table, indexed by page (aliasing the
// node's state). The coherence audit reads it and clears the card of a
// page none of whose blocks is dirty or readonly here; nothing else
// writes it.
func (m *NodeMem) Cards() []bool { return m.cards }

// Mapped reports whether page pg has been mapped locally.
func (m *NodeMem) Mapped(pg int) bool { return m.mapped[pg] }

// SetMapped marks page pg mapped.
func (m *NodeMem) SetMapped(pg int) { m.mapped[pg] = true }

// Dirty returns block b's dirty-word mask.
func (m *NodeMem) Dirty(b int) uint16 { return m.dirty[b] }

// ClearDirty zeroes block b's dirty-word mask.
func (m *NodeMem) ClearDirty(b int) { m.dirty[b] = 0 }

// SetDirtyMask replaces block b's dirty-word mask (checkpoint restore).
func (m *NodeMem) SetDirtyMask(b int, mask uint16) {
	m.dirty[b] = mask
	if mask != 0 {
		m.cards[m.page(b*m.bs)] = true
	}
}

// MarkAllDirty sets every word of block b dirty (used when a whole
// block of modifications is installed at once).
func (m *NodeMem) MarkAllDirty(b int) {
	m.dirty[b] = uint16(1)<<uint(m.sp.mc.BlockSize/8) - 1
	m.cards[m.page(b*m.bs)] = true
}

// ReadF64 reads the float64 at addr with no access check; the executor
// checks tags before calling.
func (m *NodeMem) ReadF64(addr int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(m.data[addr:]))
}

// block is the inlined block-number translation for the hot paths.
func (m *NodeMem) block(addr int) int {
	if m.bshift != 0 {
		return addr >> m.bshift
	}
	return addr / m.bs
}

// page is the inlined page-number translation for the card marks.
func (m *NodeMem) page(addr int) int {
	if m.pshift != 0 {
		return addr >> m.pshift
	}
	return addr / m.ps
}

// WriteF64 writes the float64 at addr with no access check and records
// the word in the containing block's dirty mask and page's card.
func (m *NodeMem) WriteF64(addr int, v float64) {
	binary.LittleEndian.PutUint64(m.data[addr:], math.Float64bits(v))
	b := m.block(addr)
	m.dirty[b] |= 1 << uint((addr-b*m.bs)>>3)
	m.cards[m.page(addr)] = true
}

// MarkDirtyRun records in the dirty masks and cards the k words at
// addr, addr+stride, ... (stride in bytes) — what k WriteF64 calls
// record, for an executor that has written the words straight into the
// image.
func (m *NodeMem) MarkDirtyRun(addr, stride, k int) {
	if stride != 8 {
		for ; k > 0; k-- {
			b := m.block(addr)
			m.dirty[b] |= 1 << uint((addr-b*m.bs)>>3)
			m.cards[m.page(addr)] = true
			addr += stride
		}
		return
	}
	// Consecutive words: one mask per block.
	for k > 0 {
		b := m.block(addr)
		w := (addr - b*m.bs) >> 3
		n := min(m.bs>>3-w, k)
		m.dirty[b] |= uint16((1<<uint(n) - 1) << uint(w))
		m.cards[m.page(addr)] = true
		addr += 8 * n
		k -= n
	}
}

// BlockData returns the live bytes of block b (aliasing the node image).
func (m *NodeMem) BlockData(b int) []byte {
	bs := m.sp.mc.BlockSize
	return m.data[b*bs : (b+1)*bs]
}

// Bytes returns the live bytes of [addr, addr+n) (aliasing the image).
func (m *NodeMem) Bytes(addr, n int) []byte { return m.data[addr : addr+n] }

// InstallBlock copies a full block of incoming data into the node image.
func (m *NodeMem) InstallBlock(b int, data []byte) {
	copy(m.BlockData(b), data)
}

// InstallRange copies incoming data into [addr, addr+len(data)).
func (m *NodeMem) InstallRange(addr int, data []byte) {
	copy(m.data[addr:], data)
}

// MergeDirtyWords applies only the words selected by mask from data
// into block b — the multiple-writer merge used when a writer flushes
// its modifications to the home.
func (m *NodeMem) MergeDirtyWords(b int, data []byte, mask uint16) {
	base := b * m.sp.mc.BlockSize
	for w := 0; w < m.sp.mc.BlockSize/8; w++ {
		if mask&(1<<uint(w)) != 0 {
			copy(m.data[base+8*w:base+8*w+8], data[8*w:8*w+8])
		}
	}
}

// InstallClean copies incoming block data into every word of b that is
// NOT locally dirty — the arrival side of a non-blocking write miss:
// words the processor wrote while the fetch was in flight win over the
// fetched copy.
func (m *NodeMem) InstallClean(b int, data []byte) {
	m.MergeDirtyWords(b, data, ^m.dirty[b])
}

// CheckLoad reports whether a load of addr would fault (tag invalid).
func (m *NodeMem) CheckLoad(addr int) bool {
	return m.tags[m.block(addr)] != Invalid
}

// CheckStore reports whether a store to addr would fault.
func (m *NodeMem) CheckStore(addr int) bool {
	return m.tags[m.block(addr)] == ReadWrite
}
