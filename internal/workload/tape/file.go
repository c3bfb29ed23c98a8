package tape

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"m5/internal/workload"
)

// On-disk tape format: a magic header, the catalog identity, then the
// committed blocks in columnar form, then a CRC32 (IEEE) of everything
// before it. All integers are varints; byte columns are length-prefixed.
//
//	"M5TAPE\x01"
//	uvarint len + bytes  key name
//	uvarint len + bytes  display name
//	uvarint              scale
//	varint               seed
//	uvarint              footprint
//	uvarint              total accesses
//	uvarint              block count
//	per block:
//	  uvarint n, uvarint start
//	  uvarint len + bytes   offs
//	  uvarint word count + 8-byte LE words  writes
//	  uvarint len + bytes   opEnds
//	uint32 LE            CRC32 of all preceding bytes
var fileMagic = []byte("M5TAPE\x01")

// WriteTo serializes the tape's committed prefix. It implements
// io.WriterTo.
func (t *Tape) WriteTo(w io.Writer) (int64, error) {
	s := t.committed.Load()
	crc := crc32.NewIEEE()
	cw := &countWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriter(cw)

	bw.Write(fileMagic)
	writeBytes(bw, []byte(t.key.Name))
	writeBytes(bw, []byte(t.wlName))
	writeUvarint(bw, uint64(t.key.Scale))
	writeVarint(bw, t.key.Seed)
	writeUvarint(bw, t.footprint)
	writeUvarint(bw, s.total)
	writeUvarint(bw, uint64(len(s.blocks)))
	for _, b := range s.blocks {
		writeUvarint(bw, uint64(b.n))
		writeUvarint(bw, b.start)
		writeBytes(bw, b.offs)
		writeUvarint(bw, uint64(len(b.writes)))
		var word [8]byte
		for _, v := range b.writes {
			binary.LittleEndian.PutUint64(word[:], v)
			bw.Write(word[:])
		}
		writeBytes(bw, b.opEnds)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return cw.n, err
	}
	return cw.n + 4, nil
}

// ReadTape deserializes a tape written by WriteTo. The returned tape is
// standalone (no pool, no byte budget); a cursor running past the
// recorded length continues on a live generator rebuilt from the stored
// catalog identity, so replays are not truncated to the recording.
//
// The CRC catches accidents, not crafted files, so nothing is sized from
// a header count and every block's columns are checked to decode exactly
// as replay will read them: a malformed file is an error here, never a
// panic later.
func ReadTape(r io.Reader) (*Tape, error) {
	hr := &hashReader{br: bufio.NewReader(r), h: crc32.NewIEEE()}

	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(hr, magic); err != nil {
		return nil, fmt.Errorf("tape: reading magic: %w", err)
	}
	if string(magic) != string(fileMagic) {
		return nil, fmt.Errorf("tape: bad magic (not a tape file)")
	}
	keyName, err := readBytesCap(hr, 1<<10)
	if err != nil {
		return nil, fmt.Errorf("tape: key name: %w", err)
	}
	wlName, err := readBytesCap(hr, 1<<10)
	if err != nil {
		return nil, fmt.Errorf("tape: display name: %w", err)
	}
	scale, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, fmt.Errorf("tape: scale: %w", err)
	}
	seed, err := binary.ReadVarint(hr)
	if err != nil {
		return nil, fmt.Errorf("tape: seed: %w", err)
	}
	footprint, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, fmt.Errorf("tape: footprint: %w", err)
	}
	total, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, fmt.Errorf("tape: total: %w", err)
	}
	nblocks, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, fmt.Errorf("tape: block count: %w", err)
	}
	if nblocks > (total/blockLen)+1 {
		return nil, fmt.Errorf("tape: implausible block count %d for %d accesses", nblocks, total)
	}

	t := newTape(Key{Name: string(keyName), Scale: workload.Scale(scale), Seed: seed}, nil)
	t.inited = true
	t.wlName = string(wlName)
	t.footprint = footprint
	var sum uint64
	var blocks []*block
	for bi := uint64(0); bi < nblocks; bi++ {
		n, err := binary.ReadUvarint(hr)
		if err != nil || n == 0 || n > blockLen {
			return nil, fmt.Errorf("tape: block %d length: %w", bi, errOr(err, "out of range"))
		}
		start, err := binary.ReadUvarint(hr)
		if err != nil {
			return nil, fmt.Errorf("tape: block %d start: %w", bi, err)
		}
		offs, err := readBytesCap(hr, blockLen*binary.MaxVarintLen64)
		if err != nil {
			return nil, fmt.Errorf("tape: block %d offsets: %w", bi, err)
		}
		words, err := binary.ReadUvarint(hr)
		if err != nil || words != (n+63)/64 {
			return nil, fmt.Errorf("tape: block %d write bitset: %w", bi, errOr(err, "word count mismatch"))
		}
		writes := make([]uint64, words)
		var word [8]byte
		for i := range writes {
			if _, err := io.ReadFull(hr, word[:]); err != nil {
				return nil, fmt.Errorf("tape: block %d write bitset: %w", bi, err)
			}
			writes[i] = binary.LittleEndian.Uint64(word[:])
		}
		opEnds, err := readBytesCap(hr, blockLen*binary.MaxVarintLen64)
		if err != nil {
			return nil, fmt.Errorf("tape: block %d op boundaries: %w", bi, err)
		}
		if err := checkColumns(int(n), offs, opEnds); err != nil {
			return nil, fmt.Errorf("tape: block %d: %w", bi, err)
		}
		blocks = append(blocks, &block{n: int(n), start: start, offs: offs, writes: writes, opEnds: opEnds})
		sum += n
	}
	if sum != total {
		return nil, fmt.Errorf("tape: block lengths sum to %d, header says %d", sum, total)
	}
	want := hr.h.Sum32()
	var got [4]byte
	if _, err := io.ReadFull(hr.br, got[:]); err != nil {
		return nil, fmt.Errorf("tape: checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(got[:]) != want {
		return nil, fmt.Errorf("tape: checksum mismatch")
	}
	t.committed.Store(&snapshot{blocks: blocks, total: total})
	return t, nil
}

// checkColumns verifies a block's varint columns against its length n:
// offs must decode to exactly n-1 offset deltas, and opEnds to strictly
// increasing op-boundary indices below n (the first value is an index,
// each later one a gap of at least 1). These are the invariants the
// cursor's decoders index by.
func checkColumns(n int, offs, opEnds []byte) error {
	pos := 0
	for i := 1; i < n; i++ {
		_, k := binary.Uvarint(offs[pos:])
		if k <= 0 {
			return fmt.Errorf("offsets hold %d of %d deltas", i-1, n-1)
		}
		pos += k
	}
	if pos != len(offs) {
		return fmt.Errorf("%d bytes after the %d offset deltas", len(offs)-pos, n-1)
	}
	var idx uint64
	for pos = 0; pos < len(opEnds); {
		v, k := binary.Uvarint(opEnds[pos:])
		switch {
		case k <= 0:
			return fmt.Errorf("malformed op boundary at byte %d", pos)
		case pos > 0 && v == 0:
			return fmt.Errorf("repeated op boundary at index %d", idx)
		case v >= uint64(n) || idx+v >= uint64(n):
			return fmt.Errorf("op boundary past the block's %d accesses", n)
		}
		idx += v
		pos += k
	}
	return nil
}

// hashReader hashes exactly the bytes handed to the caller (unlike a
// TeeReader under a bufio.Reader, which would hash read-ahead), so the
// running CRC at any point covers precisely the consumed prefix.
type hashReader struct {
	br  *bufio.Reader
	h   hash.Hash32
	one [1]byte
}

func (r *hashReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	if n > 0 {
		r.h.Write(p[:n])
	}
	return n, err
}

func (r *hashReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.one[0] = b
		r.h.Write(r.one[:])
	}
	return b, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	w.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeVarint(w *bufio.Writer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	w.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func writeBytes(w *bufio.Writer, b []byte) {
	writeUvarint(w, uint64(len(b)))
	w.Write(b)
}

type varintReader interface {
	io.Reader
	io.ByteReader
}

func readBytesCap(r varintReader, max int) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("length %d exceeds cap %d", n, max)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func errOr(err error, msg string) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("%s", msg)
}
