package tape

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"m5/internal/workload"
)

// seal appends the CRC32 trailer ReadTape expects. The checksum catches
// accidents, not crafted files: anyone can seal a malformed body.
func seal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// craftTape encodes a sealed tape file whose header claims total
// accesses in nblocks blocks, followed by whatever blocks writes.
func craftTape(total, nblocks uint64, blocks func(w *bufio.Writer)) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.Write(fileMagic)
	writeBytes(w, []byte("roms"))
	writeBytes(w, []byte("roms"))
	writeUvarint(w, uint64(workload.ScaleTiny))
	writeVarint(w, 1)
	writeUvarint(w, 1<<20)
	writeUvarint(w, total)
	writeUvarint(w, nblocks)
	if blocks != nil {
		blocks(w)
	}
	w.Flush()
	return seal(buf.Bytes())
}

// craftBlock writes one n-access block with the given raw offset and
// op-boundary columns and an all-reads write bitset of the right size.
func craftBlock(w *bufio.Writer, n uint64, offs, opEnds []byte) {
	writeUvarint(w, n)
	writeUvarint(w, 4096) // start
	writeBytes(w, offs)
	words := (n + 63) / 64
	writeUvarint(w, words)
	w.Write(make([]byte, 8*words))
	writeBytes(w, opEnds)
}

// smallTapeFile is a valid one-block tape with writes and op boundaries,
// small enough to seed the fuzzer.
func smallTapeFile(t testing.TB) []byte {
	t.Helper()
	tp := newTape(Key{Name: "redis", Scale: workload.ScaleTiny, Seed: 1}, nil)
	tp.inited = true
	tp.wlName = "redis"
	tp.footprint = 1 << 20
	accs := []workload.Access{
		{Offset: 64}, {Offset: 128, Write: true}, {Offset: 0, OpEnd: true},
		{Offset: 4096, OpEnd: true}, {Offset: 8192}, {Offset: 4160, Write: true, OpEnd: true},
	}
	tp.committed.Store(&snapshot{blocks: []*block{encodeBlock(accs)}, total: uint64(len(accs))})
	var buf bytes.Buffer
	if _, err := tp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Crafted inputs that carry a valid CRC over malformed structure.
var (
	// hugeCounts claims 2^62 accesses in 2^50 blocks: plausible by the
	// header check, but far beyond anything the file holds.
	hugeCounts = craftTape(1<<62, 1<<50, nil)
	// shortOffsets is a 4-access block whose offset column holds one
	// delta instead of three.
	shortOffsets = craftTape(4, 1, func(w *bufio.Writer) { craftBlock(w, 4, []byte{2}, nil) })
)

// TestReadTapeRejectsCraftedFiles: structurally malformed files are
// rejected at load with an error — never a panic, never an allocation
// sized by an untrusted count, and never a tape that panics on replay.
func TestReadTapeRejectsCraftedFiles(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xff}, 11) // an overflowing uvarint
	cases := []struct {
		name string
		data []byte
	}{
		{"huge-block-count", hugeCounts},
		{"short-offsets", shortOffsets},
		{"trailing-offsets", craftTape(2, 1, func(w *bufio.Writer) { craftBlock(w, 2, []byte{2, 2}, nil) })},
		{"overlong-offset", craftTape(2, 1, func(w *bufio.Writer) { craftBlock(w, 2, overlong, nil) })},
		{"op-past-block", craftTape(4, 1, func(w *bufio.Writer) { craftBlock(w, 4, []byte{2, 2, 2}, []byte{1, 3}) })},
		{"op-zero-gap", craftTape(4, 1, func(w *bufio.Writer) { craftBlock(w, 4, []byte{2, 2, 2}, []byte{1, 0}) })},
		{"overlong-op", craftTape(4, 1, func(w *bufio.Writer) { craftBlock(w, 4, []byte{2, 2, 2}, overlong) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tp, err := ReadTape(bytes.NewReader(tc.data)); err == nil {
				tp.Close()
				t.Fatal("crafted tape accepted")
			}
		})
	}
	// The same writer with well-formed columns loads and replays.
	valid := craftTape(4, 1, func(w *bufio.Writer) { craftBlock(w, 4, []byte{2, 2, 2}, []byte{1, 2}) })
	replayAll(t, valid, true)
	replayAll(t, smallTapeFile(t), true)
}

// replayAll is FuzzReadTape's contract: ReadTape returns an error, or
// every replay decoder (materializing, skipping, seeking) walks the
// tape's Len() accesses without panicking. mustLoad fails the test
// if the data is rejected.
func replayAll(t *testing.T, data []byte, mustLoad bool) {
	t.Helper()
	tp, err := ReadTape(bytes.NewReader(data))
	if err != nil {
		if mustLoad {
			t.Fatalf("valid tape rejected: %v", err)
		}
		return
	}
	defer tp.Close()
	const batch = 97
	total := int(tp.Len())

	cur := tp.NewCursor()
	defer cur.Close()
	buf := make([]workload.Access, batch)
	for left := total; left > 0; {
		m := cur.NextBatch(buf[:min(left, batch)])
		if m == 0 {
			t.Fatalf("NextBatch stopped %d accesses short of Len() = %d", left, total)
		}
		left -= m
	}

	alt := tp.NewCursor()
	defer alt.Close()
	for left, i := total, 0; left > 0; i++ {
		var m int
		if i%2 == 0 {
			m = alt.NextBatch(buf[:min(left, batch)])
		} else {
			m, _ = alt.Skip(buf[:min(left, batch)])
		}
		if m == 0 {
			t.Fatalf("read/skip replay stopped %d accesses short of Len() = %d", left, total)
		}
		left -= m
	}

	at, err := tp.CursorAt(uint64(total / 2))
	if err != nil {
		t.Fatalf("seek inside the recording: %v", err)
	}
	at.Close()
}

// FuzzReadTape: arbitrary bytes through ReadTape and every replay
// decoder. The CRC rejects nearly every raw mutation, so each input also
// runs with its trailer re-sealed, which lets mutations reach the
// structural checks behind the checksum.
func FuzzReadTape(f *testing.F) {
	f.Add(smallTapeFile(f))
	f.Add(hugeCounts)
	f.Add(shortOffsets)
	f.Fuzz(func(t *testing.T, data []byte) {
		replayAll(t, data, false)
		if len(data) >= 4 {
			replayAll(t, seal(data[:len(data)-4]), false)
		}
	})
}
