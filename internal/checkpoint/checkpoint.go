// Package checkpoint defines the barrier-consistent recovery snapshot
// and its wire codec. A snapshot captures the protocol-visible state of
// the whole cluster at a provably quiescent synchronization epoch: with
// no messages in flight, no handlers queued, no deferred protocol work,
// and no open coalescer buffers, the union of per-node memory images,
// access tags, dirty masks, directory entries, and counters IS the
// machine — restoring it on a fresh cluster resumes the run as if the
// epoch had just completed.
//
// The codec is self-describing and paranoid: a fixed magic, an explicit
// version, and a trailing CRC32 guard the payload, and Decode never
// panics on corrupt input — every length is bounds-checked against the
// remaining bytes before allocation (the fuzz target leans on this).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"hpfdsm/internal/stats"
)

// Magic opens every encoded snapshot.
const Magic = "HPFCKPT1"

// Version is the current codec version. Version 2 widened the
// directory sharer/writer/stale sets from one uint64 mask each to
// length-prefixed word vectors, lifting the 64-node cluster cap.
const Version = 2

// Snapshot is the cluster-wide recovery image for one epoch.
type Snapshot struct {
	Epoch      int64 // completed synchronization epochs at capture
	SimTime    int64 // simulated time of the capture instant (ns)
	TimerStart int64 // measured-region start (0 if timing not started)
	ReduceGen  int64 // completed reduction generations
	Journal    []float64
	Nodes      []NodeState
}

// NodeState is one node's protocol-visible state.
type NodeState struct {
	Tags   []byte   // memory access tag per block
	Dirty  []uint16 // dirty-word mask per block
	Mapped []byte   // 0/1 per page
	Blocks []BlockImage

	Dir    []DirEntry // home-side directory entries, ascending block
	IWDone []IWKey    // completed install-window keys, sorted

	CCFrames  []byte // compiler-directed transfer frames, 0/1 per block
	CCTouched []byte
	SCHold    []byte

	CCRecv     int64 // cumulative compiler-directed blocks received
	CCExpected int64 // cumulative blocks announced by ExpectBlocks

	Stats stats.Node
}

// BlockImage is one block's data worth persisting (home copy or a
// cached copy with a live tag or dirty words).
type BlockImage struct {
	Block int32
	Data  []byte
}

// DirEntry is one home-side directory entry. The three node sets are
// multi-word bitmaps (ceil(Nodes/64) words) so clusters past 64 nodes
// checkpoint exactly like small ones.
type DirEntry struct {
	Block   int32
	Sharers []uint64
	Writers []uint64
	Stale   []uint64
}

// IWKey is one done implicit_writable run: its first block (A) and its
// length in blocks (B), the Start and N of the run.
type IWKey struct {
	A, B int32
}

// statsSize is the fixed encoded size of stats.Node (flat integers).
var statsSize = binary.Size(stats.Node{})

// Header is a snapshot's cluster-wide part.
type Header struct {
	Epoch, SimTime, TimerStart, ReduceGen int64
	Journal                               []float64
}

// NodeSource is one node's state as the node encoder reads it. The
// encoder frames every field, in the codec's order, and asks the source
// only to fill each field's bytes, so the field order lives in
// encodeNode alone. A NodeState is read through it (Encode), and so are
// the protocol's live tables, which a capture encodes without building
// a NodeState first.
type NodeSource interface {
	// Shape returns the lengths that fix the node's encoded size.
	Shape() Shape
	// PutTags fills dst, a byte a block, with the blocks' access tags.
	PutTags(dst []byte)
	// DirtyMasks returns the blocks' dirty-word masks.
	DirtyMasks() []uint16
	// PutMapped fills dst, a byte a page, with 1 for a mapped page and 0
	// for any other.
	PutMapped(dst []byte)
	// PutBlocks fills dst with the kept block images, in ascending block
	// order, each written by PutBlock, and returns what is left of dst.
	PutBlocks(dst []byte) []byte
	// PutDir fills dst with the directory entries, in ascending block
	// order, each written by PutDirEntry, and returns what is left.
	PutDir(dst []byte) []byte
	// PutIWDone fills dst with the done implicit_writable runs, in
	// order, each written by PutIW, and returns what is left.
	PutIWDone(dst []byte) []byte
	// PutFlags fills the three per-block transfer flag tables, a byte a
	// block each.
	PutFlags(frames, touched, hold []byte)
	// Counters returns the compiler-directed transfer counts and the
	// node's statistics.
	Counters() (ccRecv, ccExpected int64, st *stats.Node)
}

// Shape is what fixes a node's encoded size: the length of each table
// and the number of records (and of their bytes or words) of each kind.
type Shape struct {
	Tags, Dirty, Mapped   int
	Frames, Touched, Hold int
	Blocks, BlockBytes    int // kept block images, and their data bytes
	DirEntries, DirWords  int // directory entries, and their set words
	IWDone                int
}

// size returns the encoded length of a node of shape s; every count and
// length prefix is a u32.
func (s *Shape) size() int {
	return 4 + s.Tags + 4 + 2*s.Dirty + 4 + s.Mapped +
		4 + 8*s.Blocks + s.BlockBytes +
		4 + 16*s.DirEntries + 8*s.DirWords +
		4 + 8*s.IWDone +
		3*4 + s.Frames + s.Touched + s.Hold +
		2*8 + 4 + statsSize
}

// Encode serializes the snapshot: magic, version, payload, CRC32
// (IEEE) of everything preceding the checksum. The result is allocated
// once, at its exact length.
func Encode(s *Snapshot) []byte { return AppendEncode(nil, s) }

// AppendEncode appends Encode(s) to dst and returns the extended
// buffer, as Append does.
func AppendEncode(dst []byte, s *Snapshot) []byte {
	h := Header{Epoch: s.Epoch, SimTime: s.SimTime, TimerStart: s.TimerStart, ReduceGen: s.ReduceGen, Journal: s.Journal}
	return Append(dst, &h, len(s.Nodes), func(i int) NodeSource { return (*stateSource)(&s.Nodes[i]) })
}

// Append appends the encoding of the snapshot whose cluster-wide part
// is h and whose node i is read from node(i), and returns the extended
// buffer. It sizes the encoding first and writes within dst's capacity,
// so a caller that passes back the buffer of an earlier capture
// (resliced to length zero) encodes a snapshot that fits without
// allocating. One that does not fit gets a buffer of twice dst's
// capacity, or of its exact length if that is more: a nil dst gives an
// exact-size result, and a buffer reused across captures that grow is
// allocated a logarithmic number of times. Whatever dst's spare
// capacity held is overwritten, never read.
func Append(dst []byte, h *Header, nodes int, node func(i int) NodeSource) []byte {
	// Up to 16 shapes stay on the stack, so a capture of a cluster that
	// size into a buffer that fits allocates nothing.
	shapes := make([]Shape, 0, 16)
	if nodes > cap(shapes) {
		shapes = make([]Shape, 0, nodes)
	}
	start := len(dst)
	end := start + len(Magic) + 4 + 4*8 + 4 + 8*len(h.Journal) + 4 + 4
	for i := 0; i < nodes; i++ {
		shapes = append(shapes, node(i).Shape())
		end += shapes[i].size()
	}
	if cap(dst) < end {
		grown := make([]byte, start, max(end, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	w := &writer{buf: dst[:end], off: start}
	w.raw([]byte(Magic))
	w.u32(Version)
	w.i64(h.Epoch)
	w.i64(h.SimTime)
	w.i64(h.TimerStart)
	w.i64(h.ReduceGen)
	w.u32(uint32(len(h.Journal)))
	for _, v := range h.Journal {
		w.u64(math.Float64bits(v))
	}
	w.u32(uint32(nodes))
	// The checksum runs behind the writer, a node at a time, over bytes
	// still in cache.
	crc := crc32.ChecksumIEEE(w.buf[start:w.off])
	for i := range shapes {
		from := w.off
		encodeNode(w, node(i), &shapes[i])
		crc = crc32.Update(crc, crc32.IEEETable, w.buf[from:w.off])
	}
	w.u32(crc)
	if w.off != end {
		panic(fmt.Sprintf("checkpoint: encoded %d bytes, sized %d", w.off-start, end-start))
	}
	return w.buf
}

// encodeNode writes one node of shape sh, field by field: this is the
// codec's field order, which decodeNode reads back.
func encodeNode(w *writer, src NodeSource, sh *Shape) {
	w.u32(uint32(sh.Tags))
	src.PutTags(w.next(sh.Tags))
	w.u32(uint32(sh.Dirty))
	putMasks(w.next(2*sh.Dirty), src.DirtyMasks())
	w.u32(uint32(sh.Mapped))
	src.PutMapped(w.next(sh.Mapped))
	w.u32(uint32(sh.Blocks))
	filled(src.PutBlocks(w.next(8*sh.Blocks+sh.BlockBytes)), "block images")
	w.u32(uint32(sh.DirEntries))
	filled(src.PutDir(w.next(16*sh.DirEntries+8*sh.DirWords)), "directory entries")
	w.u32(uint32(sh.IWDone))
	filled(src.PutIWDone(w.next(8*sh.IWDone)), "implicit_writable runs")
	w.u32(uint32(sh.Frames))
	frames := w.next(sh.Frames)
	w.u32(uint32(sh.Touched))
	touched := w.next(sh.Touched)
	w.u32(uint32(sh.Hold))
	src.PutFlags(frames, touched, w.next(sh.Hold))
	recv, expected, st := src.Counters()
	w.i64(recv)
	w.i64(expected)
	w.u32(uint32(statsSize))
	if _, err := binary.Encode(w.next(statsSize), binary.LittleEndian, st); err != nil {
		panic(fmt.Sprintf("checkpoint: stats encode: %v", err))
	}
}

// putMasks fills out with the dirty masks, little-endian, four to a
// word store where it can.
func putMasks(out []byte, masks []uint16) {
	if len(out) != 2*len(masks) {
		panic(fmt.Sprintf("checkpoint: node source has %d dirty masks, its shape %d", len(masks), len(out)/2))
	}
	i := 0
	for ; i+4 <= len(masks); i += 4 {
		m := masks[i : i+4 : i+4]
		binary.LittleEndian.PutUint64(out[2*i:], uint64(m[0])|uint64(m[1])<<16|uint64(m[2])<<32|uint64(m[3])<<48)
	}
	for ; i < len(masks); i++ {
		binary.LittleEndian.PutUint16(out[2*i:], masks[i])
	}
}

// filled panics when a source left part of a field's bytes unwritten:
// its Shape and its records disagree, and the blob would carry stale
// bytes.
func filled(rest []byte, what string) {
	if len(rest) != 0 {
		panic(fmt.Sprintf("checkpoint: node source left %d bytes of its %s unwritten", len(rest), what))
	}
}

// PutBlock writes block b's image record at the front of dst and
// returns the rest of dst.
func PutBlock(dst []byte, b int, data []byte) []byte {
	binary.LittleEndian.PutUint32(dst, uint32(b))
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(data)))
	return dst[8+copy(dst[8:], data):]
}

// PutDirEntry writes block b's directory record, its sharer, writer
// and stale sets, at the front of dst and returns the rest of dst.
func PutDirEntry(dst []byte, b int, sharers, writers, stale []uint64) []byte {
	binary.LittleEndian.PutUint32(dst, uint32(b))
	off := putWords(dst, 4, sharers)
	off = putWords(dst, off, writers)
	return dst[putWords(dst, off, stale):]
}

// PutIW writes the done implicit_writable run of n blocks from start at
// the front of dst and returns the rest of dst.
func PutIW(dst []byte, start, n int) []byte {
	binary.LittleEndian.PutUint32(dst, uint32(start))
	binary.LittleEndian.PutUint32(dst[4:], uint32(n))
	return dst[8:]
}

// putWords writes a length-prefixed uint64 vector (a node-set bitmap)
// into dst at off and returns the offset after it.
func putWords(dst []byte, off int, v []uint64) int {
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(v)))
	off += 4
	for _, x := range v {
		binary.LittleEndian.PutUint64(dst[off:], x)
		off += 8
	}
	return off
}

// stateSource reads a NodeState as the node encoder's source.
type stateSource NodeState

func (n *stateSource) Shape() Shape {
	s := Shape{
		Tags: len(n.Tags), Dirty: len(n.Dirty), Mapped: len(n.Mapped),
		Frames: len(n.CCFrames), Touched: len(n.CCTouched), Hold: len(n.SCHold),
		Blocks: len(n.Blocks), DirEntries: len(n.Dir), IWDone: len(n.IWDone),
	}
	for _, b := range n.Blocks {
		s.BlockBytes += len(b.Data)
	}
	for _, d := range n.Dir {
		s.DirWords += len(d.Sharers) + len(d.Writers) + len(d.Stale)
	}
	return s
}

func (n *stateSource) PutTags(dst []byte)   { copy(dst, n.Tags) }
func (n *stateSource) DirtyMasks() []uint16 { return n.Dirty }
func (n *stateSource) PutMapped(dst []byte) { copy(dst, n.Mapped) }

func (n *stateSource) PutBlocks(dst []byte) []byte {
	for _, b := range n.Blocks {
		dst = PutBlock(dst, int(b.Block), b.Data)
	}
	return dst
}

func (n *stateSource) PutDir(dst []byte) []byte {
	for _, d := range n.Dir {
		dst = PutDirEntry(dst, int(d.Block), d.Sharers, d.Writers, d.Stale)
	}
	return dst
}

func (n *stateSource) PutIWDone(dst []byte) []byte {
	for _, k := range n.IWDone {
		dst = PutIW(dst, int(k.A), int(k.B))
	}
	return dst
}

func (n *stateSource) PutFlags(frames, touched, hold []byte) {
	copy(frames, n.CCFrames)
	copy(touched, n.CCTouched)
	copy(hold, n.SCHold)
}

func (n *stateSource) Counters() (int64, int64, *stats.Node) {
	return n.CCRecv, n.CCExpected, &n.Stats
}

// Decode parses and validates an encoded snapshot. It never panics on
// malformed input: framing, version, checksum, and every interior
// length are verified before use.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+4+4 {
		return nil, errors.New("checkpoint: truncated header")
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, errors.New("checkpoint: bad magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("checkpoint: checksum mismatch")
	}
	r := &reader{data: body, off: len(Magic)}
	if v := r.u32(); r.err == nil && v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	s := &Snapshot{
		Epoch:      r.i64(),
		SimTime:    r.i64(),
		TimerStart: r.i64(),
		ReduceGen:  r.i64(),
	}
	s.Journal = sized[float64](r.count(8))
	for i := range s.Journal {
		s.Journal[i] = math.Float64frombits(r.u64())
	}
	nn := r.count(1)
	for i := 0; i < nn && r.err == nil; i++ {
		n, err := decodeNode(r)
		if err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, n)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(body)-r.off)
	}
	return s, nil
}

// decodeNode reads one node. Its block images share one arena and its
// directory sets another, so the allocations per node do not grow with
// the blocks it keeps; nothing aliases the input.
func decodeNode(r *reader) (NodeState, error) {
	var n NodeState
	n.Tags = r.blob()
	dirty := r.span(2)
	n.Dirty = sized[uint16](len(dirty) / 2)
	for i := range n.Dirty {
		n.Dirty[i] = binary.LittleEndian.Uint16(dirty[2*i:])
	}
	n.Mapped = r.blob()
	n.Blocks = r.blocks()
	n.Dir = r.dir()
	n.IWDone = sized[IWKey](r.count(8))
	for i := range n.IWDone {
		n.IWDone[i] = IWKey{A: int32(r.u32()), B: int32(r.u32())}
	}
	n.CCFrames = r.blob()
	n.CCTouched = r.blob()
	n.SCHold = r.blob()
	n.CCRecv = r.i64()
	n.CCExpected = r.i64()
	sb := r.span(1)
	if r.err != nil {
		return n, r.err
	}
	if len(sb) != statsSize {
		return n, fmt.Errorf("checkpoint: stats record is %d bytes, want %d", len(sb), statsSize)
	}
	if _, err := binary.Decode(sb, binary.LittleEndian, &n.Stats); err != nil {
		return n, fmt.Errorf("checkpoint: stats decode: %v", err)
	}
	return n, nil
}

// blocks reads a node's block images. A first pass over the records
// validates them and sums their lengths; the second copies every image
// into one arena.
func (r *reader) blocks() []BlockImage {
	nb := r.count(8) // block + length
	start, total := r.off, 0
	for i := 0; i < nb && r.err == nil; i++ {
		r.u32()
		total += len(r.span(1))
	}
	if r.err != nil || nb == 0 {
		return nil
	}
	r.off = start
	arena := make([]byte, total)
	bs := make([]BlockImage, nb)
	for i := range bs {
		bs[i].Block = int32(r.u32())
		if d := r.span(1); len(d) > 0 {
			bs[i].Data = arena[:len(d):len(d)]
			arena = arena[copy(arena, d):]
		}
	}
	return bs
}

// dir reads a node's directory entries, their sets carved from one
// arena sized by a first pass.
func (r *reader) dir() []DirEntry {
	ne := r.count(16) // block + three (possibly empty) word vectors
	start, total := r.off, 0
	for i := 0; i < ne && r.err == nil; i++ {
		r.u32()
		for range 3 {
			total += len(r.span(8)) / 8
		}
	}
	if r.err != nil || ne == 0 {
		return nil
	}
	r.off = start
	arena := make([]uint64, total)
	ds := make([]DirEntry, ne)
	for i := range ds {
		d := &ds[i]
		d.Block = int32(r.u32())
		d.Sharers, arena = r.words(arena)
		d.Writers, arena = r.words(arena)
		d.Stale, arena = r.words(arena)
	}
	return ds
}

// sized returns a slice of n zero elements, nil when n is 0 (an empty
// field decodes to nil, as the fuzz target's fixed point requires).
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// --- primitive codec --------------------------------------------------

// writer fills buf, which Append sized to the whole encoding,
// from off on. Only the offset moves, so writing stores no pointer.
type writer struct {
	buf []byte
	off int
}

// next returns the next n bytes of the buffer for the caller to fill.
func (w *writer) next(n int) []byte {
	b := w.buf[w.off : w.off+n : w.off+n]
	w.off += n
	return b
}

func (w *writer) raw(b []byte) { copy(w.next(len(b)), b) }
func (w *writer) u32(v uint32) { binary.LittleEndian.PutUint32(w.next(4), v) }
func (w *writer) u64(v uint64) { binary.LittleEndian.PutUint64(w.next(8), v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = errors.New("checkpoint: truncated payload")
		return false
	}
	return true
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// count reads an element count and rejects values whose minimum encoded
// size (elemSize bytes each) cannot fit in the remaining payload — a
// corrupted length cannot force a huge allocation.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(r.data)-r.off {
		r.err = fmt.Errorf("checkpoint: implausible count %d", n)
		return 0
	}
	return n
}

// span reads an element count and returns the elements' bytes,
// aliasing the input (nil on error).
func (r *reader) span(elemSize int) []byte {
	n := r.count(elemSize) * elemSize
	if r.err != nil {
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// words reads a length-prefixed uint64 vector into the front of arena,
// returning it (nil when empty) and the rest of arena.
func (r *reader) words(arena []uint64) (v, rest []uint64) {
	b := r.span(8)
	n := len(b) / 8
	if n == 0 {
		return nil, arena
	}
	v = arena[:n:n]
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return v, arena[n:]
}

// blob reads a length-prefixed byte slice (copied out of the input).
func (r *reader) blob() []byte {
	b := r.span(1)
	if len(b) == 0 {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}
