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

// Encode serializes the snapshot: magic, version, payload, CRC32
// (IEEE) of everything preceding the checksum. The result is allocated
// once, at its exact length.
func Encode(s *Snapshot) []byte { return AppendEncode(nil, s) }

// AppendEncode appends Encode(s) to dst and returns the extended
// buffer. It writes within dst's capacity and allocates only when the
// encoding does not fit, so a caller that passes back the buffer of an
// earlier capture (resliced to length zero) encodes a same-sized
// snapshot without allocating. Whatever dst's spare capacity held is
// overwritten, never read.
func AppendEncode(dst []byte, s *Snapshot) []byte {
	start := len(dst)
	end := start + encodedSize(s)
	if cap(dst) < end {
		grown := make([]byte, start, end+cap(dst)/4)
		copy(grown, dst)
		dst = grown
	}
	w := &writer{buf: dst[:end], off: start}
	w.raw([]byte(Magic))
	w.u32(Version)
	w.i64(s.Epoch)
	w.i64(s.SimTime)
	w.i64(s.TimerStart)
	w.i64(s.ReduceGen)
	w.u32(uint32(len(s.Journal)))
	for _, v := range s.Journal {
		w.u64(math.Float64bits(v))
	}
	w.u32(uint32(len(s.Nodes)))
	for i := range s.Nodes {
		encodeNode(w, &s.Nodes[i])
	}
	w.u32(crc32.ChecksumIEEE(w.buf[start:w.off]))
	if w.off != end {
		panic(fmt.Sprintf("checkpoint: encoded %d bytes, sized %d", w.off-start, end-start))
	}
	return w.buf
}

// encodedSize returns the length of Encode(s).
func encodedSize(s *Snapshot) int {
	n := len(Magic) + 4 + 4*8 + 4 + 8*len(s.Journal) + 4
	for i := range s.Nodes {
		n += nodeSize(&s.Nodes[i])
	}
	return n + 4
}

// nodeSize returns the encoded length of one node, field by field in
// encodeNode's order; every count and blob length is a u32.
func nodeSize(n *NodeState) int {
	size := 4 + len(n.Tags) + 4 + 2*len(n.Dirty) + 4 + len(n.Mapped)
	size += 4
	for _, b := range n.Blocks {
		size += 4 + 4 + len(b.Data)
	}
	size += 4
	for _, d := range n.Dir {
		size += 4 + 3*4 + 8*(len(d.Sharers)+len(d.Writers)+len(d.Stale))
	}
	size += 4 + 8*len(n.IWDone)
	size += 3*4 + len(n.CCFrames) + len(n.CCTouched) + len(n.SCHold)
	return size + 2*8 + 4 + statsSize
}

func encodeNode(w *writer, n *NodeState) {
	w.blob(n.Tags)
	w.u32(uint32(len(n.Dirty)))
	out := w.next(2 * len(n.Dirty))
	for i, m := range n.Dirty {
		binary.LittleEndian.PutUint16(out[2*i:], m)
	}
	w.blob(n.Mapped)
	w.u32(uint32(len(n.Blocks)))
	for i := range n.Blocks {
		b := &n.Blocks[i]
		w.u32(uint32(b.Block))
		w.blob(b.Data)
	}
	w.u32(uint32(len(n.Dir)))
	for i := range n.Dir {
		d := &n.Dir[i]
		w.u32(uint32(d.Block))
		w.words(d.Sharers)
		w.words(d.Writers)
		w.words(d.Stale)
	}
	w.u32(uint32(len(n.IWDone)))
	for _, k := range n.IWDone {
		w.u32(uint32(k.A))
		w.u32(uint32(k.B))
	}
	w.blob(n.CCFrames)
	w.blob(n.CCTouched)
	w.blob(n.SCHold)
	w.i64(n.CCRecv)
	w.i64(n.CCExpected)
	w.u32(uint32(statsSize))
	if _, err := binary.Encode(w.next(statsSize), binary.LittleEndian, &n.Stats); err != nil {
		panic(fmt.Sprintf("checkpoint: stats encode: %v", err))
	}
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

// writer fills buf, which AppendEncode sized to the whole encoding,
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

// blob writes a length-prefixed byte slice.
func (w *writer) blob(b []byte) {
	w.u32(uint32(len(b)))
	w.raw(b)
}

// words writes a length-prefixed uint64 vector (a node-set bitmap).
func (w *writer) words(v []uint64) {
	w.u32(uint32(len(v)))
	out := w.next(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], x)
	}
}

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
