package tape

import (
	"encoding/binary"
	"fmt"

	"m5/internal/workload"
)

// Cursor replays a tape as a workload.Generator: an allocation-free
// decoder over the committed prefix, with no goroutine and no channel.
// When a cursor runs past what the tape can commit (budget exhausted or
// the tape evicted), it adopts a private live generator positioned at
// the committed end, so the stream it emits is identical either way.
//
// A Cursor is not safe for concurrent use; open one per consumer
// (Tape.NewCursor is safe to call concurrently).
type Cursor struct {
	t    *Tape
	snap *snapshot
	pos  uint64 // absolute stream position (accesses consumed)

	// Decode state for the current block (blocks[bi] at in-block index i);
	// bi == len(snap.blocks) with i == 0 exactly when pos == snap.total.
	bi     int
	i      int
	off    uint64 // offset of access i-1 (valid when i > 0)
	offPos int    // byte position in blocks[bi].offs
	nextOp int    // in-block index of next op boundary, -1 when none left
	opPos  int    // byte position in blocks[bi].opEnds

	tail   workload.Generator // private live continuation, nil normally
	err    error
	one    [1]workload.Access
	closed bool
}

// NewCursor opens a replay cursor at the start of the stream.
func (t *Tape) NewCursor() *Cursor {
	c := &Cursor{t: t, snap: t.committed.Load()}
	c.enterBlock()
	return c
}

// CursorAt opens a replay cursor at an absolute stream position. When pos
// lies beyond the committed prefix the tape is extended (or a live tail
// fast-forwarded) to reach it.
func (t *Tape) CursorAt(pos uint64) (*Cursor, error) {
	c := &Cursor{t: t, snap: t.committed.Load()}
	for c.snap.total < pos && c.tail == nil {
		s, tail, err := t.extend(c.snap.total)
		if err != nil {
			return nil, err
		}
		if s != nil {
			c.snap = s
			continue
		}
		if tail == nil {
			return nil, fmt.Errorf("tape: %q stream ended %d accesses before position %d",
				t.key.Name, pos-c.snap.total, pos)
		}
		// Fast-forward the adopted tail from the committed end to pos.
		c.tail = tail
		var buf [256]workload.Access
		for left := pos - c.snap.total; left > 0; {
			want := uint64(len(buf))
			if left < want {
				want = left
			}
			n := workload.NextBatch(tail, buf[:want])
			if n == 0 {
				tail.Close()
				return nil, fmt.Errorf("tape: %q stream ended %d accesses before position %d",
					t.key.Name, left, pos)
			}
			left -= uint64(n)
		}
	}
	c.pos = pos
	if c.tail == nil {
		c.seek(pos)
	}
	return c, nil
}

// seek positions the in-block decode state at absolute position pos,
// which must lie within the committed snapshot (pos <= total).
func (c *Cursor) seek(pos uint64) {
	c.bi, c.i, c.offPos, c.opPos = 0, 0, 0, 0
	var base uint64
	for c.bi < len(c.snap.blocks) {
		blk := c.snap.blocks[c.bi]
		if pos < base+uint64(blk.n) {
			break
		}
		base += uint64(blk.n)
		c.bi++
	}
	c.enterBlock()
	if c.bi < len(c.snap.blocks) {
		c.skip(int(pos - base))
	}
}

// enterBlock resets decode state for block bi (no-op past the last
// block).
func (c *Cursor) enterBlock() {
	c.i, c.offPos, c.opPos = 0, 0, 0
	c.nextOp = -1
	if c.bi >= len(c.snap.blocks) {
		return
	}
	blk := c.snap.blocks[c.bi]
	if len(blk.opEnds) > 0 {
		v, n := binary.Uvarint(blk.opEnds)
		c.nextOp, c.opPos = int(v), n
	}
}

// skip decodes and discards k accesses within the current block.
func (c *Cursor) skip(k int) {
	blk := c.snap.blocks[c.bi]
	for j := 0; j < k; j++ {
		if c.i > 0 {
			d, n := binary.Uvarint(blk.offs[c.offPos:])
			c.offPos += n
			c.off += uint64(unzigzag(d))
		} else {
			c.off = blk.start
		}
		if c.i == c.nextOp {
			c.advanceOp(blk)
		}
		c.i++
	}
}

// advanceOp steps the op-boundary decoder to the next boundary index.
func (c *Cursor) advanceOp(blk *block) {
	if c.opPos >= len(blk.opEnds) {
		c.nextOp = -1
		return
	}
	gap, n := binary.Uvarint(blk.opEnds[c.opPos:])
	c.opPos += n
	c.nextOp += int(gap)
}

// Name implements workload.Generator.
func (c *Cursor) Name() string { return c.t.wlName }

// Footprint implements workload.Generator.
func (c *Cursor) Footprint() uint64 { return c.t.footprint }

// Next implements workload.Generator.
func (c *Cursor) Next() (workload.Access, bool) {
	if c.NextBatch(c.one[:]) == 0 {
		return workload.Access{}, false
	}
	return c.one[0], true
}

// NextBatch implements workload.BatchGenerator: it decodes straight into
// buf with no allocation.
func (c *Cursor) NextBatch(buf []workload.Access) int {
	if c.closed {
		return 0
	}
	n := 0
	for n < len(buf) {
		if c.tail != nil {
			m := workload.NextBatch(c.tail, buf[n:])
			n += m
			c.pos += uint64(m)
			if m == 0 {
				break
			}
			continue
		}
		if c.pos >= c.snap.total {
			if !c.advance() {
				break
			}
			continue
		}
		blk := c.snap.blocks[c.bi]
		if c.i >= blk.n {
			c.bi++
			c.enterBlock()
			continue
		}
		m := blk.n - c.i
		if m > len(buf)-n {
			m = len(buf) - n
		}
		c.decode(blk, buf[n:n+m])
		n += m
		c.pos += uint64(m)
	}
	return n
}

// NextColumns implements workload.ColumnarGenerator: committed blocks
// decode straight into the packed columnar arrays — no per-access struct
// materialization — which is what feeds the simulator's fast-forward
// kernels. It returns -1 once the cursor has adopted a private live tail
// (the tail is a plain Generator; callers fall back to NextBatch, which
// emits the identical stream). The caller must have Grown cols to max.
//
//m5:hotpath
func (c *Cursor) NextColumns(cols *workload.Columns, max int) int {
	if c.closed || c.tail != nil {
		return -1
	}
	cols.Clear(max)
	n := 0
	for n < max {
		if c.pos >= c.snap.total {
			//m5:coldpath tape extension: once per 4096-access block, and it
			// allocates (encode) by design.
			if !c.advance() {
				break
			}
			continue
		}
		if c.tail != nil {
			// advance adopted a live tail mid-call: hand back what was
			// decoded; the next call reports -1 and the caller falls back.
			break
		}
		blk := c.snap.blocks[c.bi]
		if c.i >= blk.n {
			c.bi++
			//m5:coldpath block transition: once per 4096 accesses.
			c.enterBlock()
			continue
		}
		m := blk.n - c.i
		if m > max-n {
			m = max - n
		}
		c.decodeCols(blk, cols, n, m)
		n += m
		c.pos += uint64(m)
	}
	if n == 0 && c.tail != nil {
		return -1
	}
	cols.Offs = cols.Offs[:n]
	return n
}

// SkipColumns implements workload.ColumnarSkipper: discard up to max
// accesses without materializing them. A skip that reaches the end of a
// committed block is O(1) — entering the next block resets the
// delta-decode state, so the remainder's varints never need walking; only
// a skip that stops mid-block walks the varint stream (without writing
// columns). Returns -1 once a private live tail has been adopted, exactly
// like NextColumns.
//
//m5:hotpath
func (c *Cursor) SkipColumns(max int) (int, bool) {
	if c.closed || c.tail != nil {
		return -1, false
	}
	n := 0
	ops := false
	for n < max {
		if c.pos >= c.snap.total {
			//m5:coldpath tape extension: once per 4096-access block, and it
			// allocates (encode) by design.
			if !c.advance() {
				break
			}
			continue
		}
		if c.tail != nil {
			// advance adopted a live tail mid-call: report what was
			// skipped; the next call returns -1 and the caller falls back.
			break
		}
		blk := c.snap.blocks[c.bi]
		if c.i >= blk.n {
			c.bi++
			//m5:coldpath block transition: once per 4096 accesses.
			c.enterBlock()
			continue
		}
		m := blk.n - c.i
		if m <= max-n {
			// Whole block remainder: the next block starts from an
			// absolute offset, so the skipped deltas are never needed.
			if c.nextOp >= 0 {
				ops = true
			}
			c.bi++
			//m5:coldpath block transition: once per 4096 accesses.
			c.enterBlock()
			n += m
			c.pos += uint64(m)
			continue
		}
		m = max - n
		if c.skipCols(blk, m) {
			ops = true
		}
		n += m
		c.pos += uint64(m)
	}
	if n == 0 && c.tail != nil {
		return -1, false
	}
	return n, ops
}

// skipCols walks m accesses of the current block's varint stream without
// writing columns, keeping the delta-decode and op-boundary state exact
// for the next materializing read. It reports whether an op boundary was
// crossed. The caller guarantees the accesses exist.
//
//m5:hotpath
func (c *Cursor) skipCols(blk *block, m int) bool {
	i, off, offPos := c.i, c.off, c.offPos
	offs := blk.offs
	nextOp := c.nextOp
	ops := false
	for j := 0; j < m; j++ {
		if i > 0 {
			d := uint64(offs[offPos])
			offPos++
			if d >= 0x80 {
				d &= 0x7f
				for s := uint(7); ; s += 7 {
					b := offs[offPos]
					offPos++
					if b < 0x80 {
						d |= uint64(b) << s
						break
					}
					d |= uint64(b&0x7f) << s
				}
			}
			off += uint64(unzigzag(d))
		} else {
			off = blk.start
		}
		if i == nextOp {
			ops = true
			//m5:coldpath op boundaries are rare (Redis only).
			c.advanceOp(blk)
			nextOp = c.nextOp
		}
		i++
	}
	c.i, c.off, c.offPos = i, off, offPos
	return ops
}

// decodeCols fills cols[base:base+m] with the next m accesses of the
// current block. The caller guarantees they exist. The offset decode
// mirrors decode; write bits are re-aligned from in-block indices to
// batch indices as they are set.
//
//m5:hotpath
func (c *Cursor) decodeCols(blk *block, cols *workload.Columns, base, m int) {
	i, off, offPos := c.i, c.off, c.offPos
	offs, writes := blk.offs, blk.writes
	nextOp := c.nextOp
	outOffs := cols.Offs[base : base+m]
	ops := cols.OpEnds
	for j := 0; j < m; j++ {
		if i > 0 {
			d := uint64(offs[offPos])
			offPos++
			if d >= 0x80 {
				d &= 0x7f
				for s := uint(7); ; s += 7 {
					b := offs[offPos]
					offPos++
					if b < 0x80 {
						d |= uint64(b) << s
						break
					}
					d |= uint64(b&0x7f) << s
				}
			}
			off += uint64(unzigzag(d))
		} else {
			off = blk.start
		}
		outOffs[j] = off
		if writes[i>>6]&(1<<(i&63)) != 0 {
			k := uint(base + j)
			cols.Writes[k>>6] |= 1 << (k & 63)
		}
		if i == nextOp {
			ops = append(ops, int32(base+j))
			//m5:coldpath op boundaries are rare (Redis only) and the gap
			// varint decode is once per operation, not per access.
			c.advanceOp(blk)
			nextOp = c.nextOp
		}
		i++
	}
	cols.OpEnds = ops
	c.i, c.off, c.offPos = i, off, offPos
}

// decode fills out with the next len(out) accesses of the current block.
// The caller guarantees they exist. The varint decode is inlined by hand
// (single-byte fast path first) — this loop is the replay hot path, and
// binary.Uvarint's slice-header churn and overflow checks are measurable
// at tens of millions of accesses.
func (c *Cursor) decode(blk *block, out []workload.Access) {
	i, off, offPos := c.i, c.off, c.offPos
	offs, writes := blk.offs, blk.writes
	nextOp := c.nextOp
	for j := range out {
		if i > 0 {
			d := uint64(offs[offPos])
			offPos++
			if d >= 0x80 {
				d &= 0x7f
				for s := uint(7); ; s += 7 {
					b := offs[offPos]
					offPos++
					if b < 0x80 {
						d |= uint64(b) << s
						break
					}
					d |= uint64(b&0x7f) << s
				}
			}
			off += uint64(unzigzag(d))
		} else {
			off = blk.start
		}
		a := workload.Access{Offset: off}
		a.Write = writes[i>>6]&(1<<(i&63)) != 0
		if i == nextOp {
			a.OpEnd = true
			c.advanceOp(blk)
			nextOp = c.nextOp
		}
		out[j] = a
		i++
	}
	c.i, c.off, c.offPos = i, off, offPos
}

// advance refreshes the snapshot past the committed end, recording more
// of the stream or adopting a live tail as the tape dictates. It returns
// false when the stream has ended or errored.
func (c *Cursor) advance() bool {
	s, tail, err := c.t.extend(c.pos)
	if c.t.pool != nil {
		c.t.pool.reap()
	}
	if err != nil {
		c.err = err
		return false
	}
	if s != nil {
		if c.bi >= len(c.snap.blocks) {
			// We were parked exactly at the old committed end; the new
			// snapshot appends blocks after bi, so block-entry state is
			// recomputed lazily by the NextBatch loop.
			c.snap = s
			c.enterBlock()
		} else {
			c.snap = s
		}
		return true
	}
	if tail != nil {
		c.tail = tail
		return true
	}
	return false
}

// Checkpoint implements workload.Checkpointer: O(1), the cursor index
// plus the tape's catalog identity.
func (c *Cursor) Checkpoint() (workload.Checkpoint, bool) {
	return workload.Checkpoint{
		Name:     c.t.key.Name,
		Scale:    c.t.key.Scale,
		Seed:     c.t.key.Seed,
		Consumed: c.pos,
	}, true
}

// ReopenAt implements workload.Reopener: an independent cursor over the
// same tape, seeked to the absolute position.
func (c *Cursor) ReopenAt(consumed uint64) (workload.Generator, error) {
	return c.t.CursorAt(consumed)
}

// Err reports a stream-extension failure, if any. The Generator
// interface has no error channel, so a cursor that cannot extend its
// stream reports end-of-stream through NextBatch and retains the cause
// here.
func (c *Cursor) Err() error { return c.err }

// Close implements workload.Generator. It releases the private live
// tail, if any; the shared tape is unaffected.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.tail != nil {
		c.tail.Close()
		c.tail = nil
	}
}
