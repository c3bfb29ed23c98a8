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
		c.skip(c.snap.blocks[c.bi], int(pos-base))
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

// NextBatch implements workload.Generator: it decodes straight into
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

// Skip implements workload.Skipper: it discards up to len(scratch)
// accesses without decoding them. A skip that reaches the end of a
// committed block is O(1), because the next block starts from an absolute
// offset and the skipped deltas are never needed. Only a skip that stops
// mid-block walks the block's varints. Past the committed prefix, the
// private live tail reads into scratch.
//
//m5:hotpath
func (c *Cursor) Skip(scratch []workload.Access) (int, bool) {
	if c.closed {
		return 0, false
	}
	max := len(scratch)
	n := 0
	ops := false
	for n < max {
		if c.tail != nil {
			// A live generator fills scratch unless its stream ended.
			m, o := workload.Skip(c.tail, scratch[n:])
			n += m
			c.pos += uint64(m)
			ops = ops || o
			break
		}
		if c.pos >= c.snap.total {
			//m5:coldpath tape extension: once per 4096-access block, and it
			// allocates (encode) by design.
			if !c.advance() {
				break
			}
			continue
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
		if c.skip(blk, m) {
			ops = true
		}
		n += m
		c.pos += uint64(m)
	}
	return n, ops
}

// skip walks m accesses of the current block's varint stream without
// materializing them, keeping the delta-decode and op-boundary state exact
// for the next read. It reports whether an op boundary was crossed. The
// caller guarantees the accesses exist.
//
//m5:hotpath
func (c *Cursor) skip(blk *block, m int) bool {
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
