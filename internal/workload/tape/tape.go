// Package tape implements record-once/replay-many access-stream caching
// for the workload catalog. A Tape is a compact, immutable, columnar
// recording of a catalog generator's access stream — delta-encoded
// offsets, bit-packed write flags, and run-length op boundaries — shared
// read-only by any number of replay Cursors. Cursors implement
// workload.Generator with no goroutine, no channel, and an O(1)
// checkpoint (the cursor index), so experiment harnesses that traverse
// one benchmark stream many times (Figure 9 runs six migration configs
// over the same stream) pay the generation cost once.
//
// Tapes grow on demand: the committed prefix is immutable and lock-free
// to read (an atomically swapped block list), while a single parked live
// generator — positioned exactly at the committed end — extends the tape
// one block at a time under the tape mutex. Because catalog generators
// are deterministic functions of (name, scale, seed), the recorded
// stream is identical no matter which cursor drives the recording, which
// is what keeps results byte-identical at any parallelism.
package tape

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"m5/internal/workload"
)

// blockLen is the number of accesses per tape block. It matches the
// workload engine's batch size so one recording step consumes exactly
// one producer batch.
const blockLen = 4096

// blockOverhead approximates the fixed per-block bookkeeping (struct and
// slice headers) charged against the pool budget.
const blockOverhead = 64

// maxBlockBytes is a conservative upper bound on one encoded block,
// reserved against the pool budget before recording and trimmed to the
// actual size afterwards (offsets worst-case one max-length varint per
// access, one bit per access of write flags, op boundaries worst-case
// one byte per access).
const maxBlockBytes = blockLen*binary.MaxVarintLen64 + blockLen/8 + blockLen + binary.MaxVarintLen64 + blockOverhead

// Key identifies a tape: the catalog identity of the recorded stream.
// Length is deliberately not part of the key — a tape is a growable
// committed prefix of the (unbounded) stream, so harnesses that need
// different lengths of the same stream share one recording.
type Key struct {
	Name  string
	Scale workload.Scale
	Seed  int64
}

// block is one immutable run of blockLen (or, for an ended stream, fewer)
// accesses in columnar form.
type block struct {
	n     int    // accesses in this block
	start uint64 // absolute offset of access 0
	// offs holds zigzag-uvarint deltas for accesses 1..n-1 (access 0 is
	// start).
	offs []byte
	// writes is a bitset: bit i set means access i is a write.
	writes []uint64
	// opEnds holds uvarint-encoded op-boundary indices: the first value
	// is the index of the first OpEnd access, each following value the
	// gap to the next.
	opEnds []byte
}

// bytes is the block's budget charge.
func (b *block) size() uint64 {
	return uint64(len(b.offs)) + uint64(len(b.writes))*8 + uint64(len(b.opEnds)) + blockOverhead
}

// snapshot is an immutable view of a tape's committed prefix.
type snapshot struct {
	blocks []*block
	total  uint64 // accesses across blocks
}

// Tape is a columnar recording of one catalog stream. The committed
// prefix is immutable and safe for concurrent cursors; extension is
// serialized on mu. Tapes are created through a Pool (bounded) or Record
// / ReadTape (standalone, unbounded).
type Tape struct {
	key       Key
	wlName    string // display name (workload.Generator.Name of the source)
	footprint uint64

	pool     *Pool       // nil: standalone tape, no byte budget
	detached atomic.Bool // evicted from its pool: stop growing

	// bytes and lastUse are pool bookkeeping, guarded by pool.mu.
	bytes   uint64
	lastUse uint64

	committed atomic.Pointer[snapshot]

	mu       sync.Mutex
	inited   bool
	initErr  error
	src      workload.Generator // parked live source, positioned at committed end
	srcEnded bool
	scratch  []workload.Access // recording buffer, reused per extension
}

// newTape builds an uninitialised tape shell.
func newTape(key Key, pool *Pool) *Tape {
	t := &Tape{key: key, pool: pool}
	t.committed.Store(&snapshot{})
	return t
}

// init builds the live source on first use; idempotent.
func (t *Tape) init() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inited {
		return t.initErr
	}
	src, err := workload.New(t.key.Name, t.key.Scale, t.key.Seed)
	if err != nil {
		t.inited, t.initErr = true, err
		return err
	}
	t.inited = true
	t.wlName = src.Name()
	t.footprint = src.Footprint()
	t.src = src
	return nil
}

// Name returns the recorded benchmark's display name.
func (t *Tape) Name() string { return t.wlName }

// Key returns the tape's catalog identity.
func (t *Tape) Key() Key { return t.key }

// Footprint returns the recorded benchmark's arena size.
func (t *Tape) Footprint() uint64 { return t.footprint }

// Len returns the number of committed accesses.
func (t *Tape) Len() uint64 { return t.committed.Load().total }

// Size returns the committed prefix's encoded size in bytes.
func (t *Tape) Size() uint64 {
	var n uint64
	for _, b := range t.committed.Load().blocks {
		n += b.size()
	}
	return n
}

// Close seals the tape: the parked live source (if any) is released. The
// committed prefix stays replayable; a cursor running past it continues
// on a private rebuilt source.
func (t *Tape) Close() {
	t.mu.Lock()
	if t.src != nil {
		t.src.Close()
		t.src = nil
	}
	t.mu.Unlock()
}

// extend grows the committed prefix past pos (the caller's exhausted
// position, which is at or beyond the committed total). It returns, in
// order of preference:
//
//   - a new snapshot whose total exceeds the old one (grown, possibly by
//     another cursor);
//   - a live tail generator positioned exactly at the committed end for
//     the calling cursor to adopt, when the tape cannot grow (pool
//     budget exhausted or tape evicted);
//   - (nil, nil, nil) when the recorded stream has genuinely ended.
func (t *Tape) extend(pos uint64) (*snapshot, workload.Generator, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.committed.Load()
	if s.total > pos {
		return s, nil, nil
	}
	if t.srcEnded {
		return nil, nil, nil
	}

	// Budget: reserve the worst case up front, trim after encoding. A
	// refusal converts this cursor to live generation from the committed
	// end — the stream it sees is identical either way.
	if t.detached.Load() || (t.pool != nil && !t.pool.reserve(t, maxBlockBytes)) {
		if t.src != nil {
			tail := t.src
			t.src = nil
			t.pool.noteLiveTail()
			return nil, tail, nil
		}
		tail, err := t.reopenLive(s.total)
		if err == nil {
			t.pool.noteLiveTail()
		}
		return nil, tail, err
	}

	if t.src == nil {
		src, err := t.reopenLive(s.total)
		if err != nil {
			t.pool.release(t, maxBlockBytes)
			return nil, nil, err
		}
		t.src = src
	}

	if cap(t.scratch) < blockLen {
		t.scratch = make([]workload.Access, blockLen)
	}
	buf := t.scratch[:blockLen]
	n := 0
	for n < blockLen {
		m := workload.NextBatch(t.src, buf[n:])
		if m == 0 {
			// Stream end: only reachable on imported tapes whose catalog
			// identity cannot regenerate past the recording.
			t.src.Close()
			t.src = nil
			t.srcEnded = true
			break
		}
		n += m
	}
	if n == 0 {
		t.pool.release(t, maxBlockBytes)
		return nil, nil, nil
	}

	blk := encodeBlock(buf[:n])
	t.pool.release(t, maxBlockBytes-blk.size())

	blocks := make([]*block, len(s.blocks)+1)
	copy(blocks, s.blocks)
	blocks[len(s.blocks)] = blk
	next := &snapshot{blocks: blocks, total: s.total + uint64(n)}
	t.committed.Store(next)
	return next, nil, nil
}

// reopenLive rebuilds a catalog generator fast-forwarded to pos.
func (t *Tape) reopenLive(pos uint64) (workload.Generator, error) {
	if pos == 0 {
		return workload.New(t.key.Name, t.key.Scale, t.key.Seed)
	}
	return workload.NewAt(workload.Checkpoint{
		Name:     t.key.Name,
		Scale:    t.key.Scale,
		Seed:     t.key.Seed,
		Consumed: pos,
	})
}

// encodeBlock packs accesses into columnar form.
func encodeBlock(accs []workload.Access) *block {
	b := &block{n: len(accs), start: accs[0].Offset}
	b.writes = make([]uint64, (len(accs)+63)/64)
	var offs []byte
	var opEnds []byte
	var tmp [binary.MaxVarintLen64]byte
	prev := accs[0].Offset
	lastOp := -1
	for i, a := range accs {
		if i > 0 {
			d := int64(a.Offset - prev)
			offs = append(offs, tmp[:binary.PutUvarint(tmp[:], zigzag(d))]...)
			prev = a.Offset
		}
		if a.Write {
			b.writes[i>>6] |= 1 << (i & 63)
		}
		if a.OpEnd {
			gap := uint64(i - lastOp)
			if lastOp < 0 {
				gap = uint64(i)
			}
			opEnds = append(opEnds, tmp[:binary.PutUvarint(tmp[:], gap)]...)
			lastOp = i
		}
	}
	b.offs = offs
	b.opEnds = opEnds
	return b
}

// zigzag maps signed deltas to small unsigned varints.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
//
//m5:hotpath
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Record records the first n accesses of a catalog benchmark into a
// standalone tape with no byte budget. The caller owns Close.
func Record(name string, scale workload.Scale, seed int64, n uint64) (*Tape, error) {
	t := newTape(Key{Name: name, Scale: scale, Seed: seed}, nil)
	if err := t.init(); err != nil {
		return nil, err
	}
	for t.Len() < n {
		s, tail, err := t.extend(t.Len())
		if err != nil {
			t.Close()
			return nil, err
		}
		if tail != nil {
			// Unbudgeted tapes never refuse growth; a tail here is a bug.
			tail.Close()
			t.Close()
			return nil, fmt.Errorf("tape: standalone tape refused growth")
		}
		if s == nil {
			break // stream ended before n
		}
	}
	return t, nil
}
