package experiments

import (
	"math"
	"math/rand"
	"testing"

	"m5/internal/mem"
	"m5/internal/trace"
	"m5/internal/tracker"
)

// replayCase is one scoring configuration and trace, decoded from bytes
// so the property test and the fuzz target share it.
type replayCase struct {
	cfg    tracker.Config
	period uint64
	wt     WeightedTrace
}

// Decoding tables: N covers one-column and two-column sketches,
// power-of-two widths and the modulo-reduced ones of N=50 and 100, and
// sits on both sides of the epochs' distinct counts; the periods give
// epochs of about 1 to 66 entries.
var (
	replayEntries = []int{1, 2, 4, 8, 16, 50, 64, 100, 512}
	replayK       = []int{1, 5, 64}
	replayPeriods = []uint64{16, 64, 256, 1024}
)

// decodeReplayCase reads a case from data. data[0] picks the algorithm
// (bits 0-1), DecayOnQuery (bit 2), word keys (bit 3), non-unit weights
// (bit 4) and K (bits 5-7); data[1] picks N and data[2] the period. Each
// later byte pair is one trace entry: the first byte is the key, page in
// its high nibble and word in its low one, and the second holds the time
// step (bits 0-4) and, for a weighted trace, the weight (bits 5-7, so 0
// occurs). ok is false when data holds no header.
func decodeReplayCase(data []byte) (c replayCase, ok bool) {
	if len(data) < 3 {
		return c, false
	}
	h := data[0]
	c.cfg = tracker.Config{
		Algorithm:    tracker.Algorithm(h & 3),
		DecayOnQuery: h&4 != 0,
		Granularity:  tracker.PageGranularity,
		K:            replayK[int(h>>5)%len(replayK)],
		Entries:      replayEntries[int(data[1])%len(replayEntries)],
	}
	if h&8 != 0 {
		c.cfg.Granularity = tracker.WordGranularity
	}
	c.period = replayPeriods[int(data[2])%len(replayPeriods)]
	now := uint64(1)
	for e := data[3:]; len(e) >= 2; e = e[2:] {
		page, word := uint64(e[0]>>4), uint64(e[0]&15)
		now += uint64(e[1] & 31)
		w := uint64(1)
		if h&16 != 0 {
			w = uint64(e[1] >> 5)
		}
		c.wt.Accs = append(c.wt.Accs, trace.Access{Time: now, Addr: mem.PhysAddr(page<<mem.PageShift | word<<mem.WordShift)})
		c.wt.Weights = append(c.wt.Weights, w)
	}
	return c, true
}

// checkScoreMatchesReplay scores the case three ways: through
// ScoreTrackerOnWeightedTrace on a fresh tracker, through the truth's
// scorer building its tracker lazily as Figure 7 does, and with the
// streaming reference that replays every epoch. All three must agree bit
// for bit. It returns the epochs the fresh tracker replayed and those
// the truth holds.
func checkScoreMatchesReplay(t *testing.T, c replayCase) (replayed, epochs uint64) {
	t.Helper()
	tr := tracker.New(c.cfg)
	got := ScoreTrackerOnWeightedTrace(tr, c.wt, EpochByTime(c.period))
	truth := newEpochTruth(c.wt, c.cfg.Granularity, EpochByTime(c.period), tr.Config().K)
	lazy := truth.score(tr.Config(), nil)
	want := streamScore(tracker.New(c.cfg), c.wt, EpochByTime(c.period))
	if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(lazy) != math.Float64bits(want) {
		t.Fatalf("%+v, period %d, %d entries: score %v, lazy %v, full replay %v",
			c.cfg, c.period, len(c.wt.Accs), got, lazy, want)
	}
	return tr.Queries(), uint64(len(truth.epochs))
}

// TestScoreMatchesFullReplay pins the exact-epoch shortcut to full
// replay on random traces over small skewed key spaces, with unit and
// non-unit weights, for all four algorithms, DecayOnQuery on and off,
// K in {1, 5, 64} and N on both sides of the epochs' distinct counts.
// The cases must both skip and replay epochs in bulk.
func TestScoreMatchesFullReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var replayed, epochs uint64
	for range 1000 {
		data := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		pages, words := 1+rng.Intn(16), 1+rng.Intn(16)
		for n := rng.Intn(300); n > 0; n-- {
			page, word := rng.Intn(1+rng.Intn(pages)), rng.Intn(1+rng.Intn(words))
			data = append(data, byte(page<<4|word), byte(rng.Intn(256)))
		}
		c, _ := decodeReplayCase(data)
		r, e := checkScoreMatchesReplay(t, c)
		replayed += r
		epochs += e
	}
	if skipped := epochs - replayed; skipped < epochs/10 || replayed < epochs/10 {
		t.Fatalf("%d of %d epochs skipped: the cases test too little of one side", skipped, epochs)
	}
}

// FuzzScoreMatchesFullReplay runs the same comparison on fuzzed cases
// (decodeReplayCase gives the byte layout).
func FuzzScoreMatchesFullReplay(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 0x11, 3, 0x12, 5, 0x11, 30, 0x34, 2})
	f.Add([]byte{0x11, 1, 1, 0x01, 0xe4, 0x02, 0x21, 0x01, 0x7f, 0x45, 0x1f})
	f.Add([]byte{0x1a, 5, 2, 0x10, 1, 0x20, 1, 0x30, 1, 0x10, 31, 0x20, 1})
	f.Add([]byte{0x47, 8, 3, 0xff, 0xff, 0x0f, 0x40, 0xf0, 0x21})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeReplayCase(data); ok {
			checkScoreMatchesReplay(t, c)
		}
	})
}

// A tracker that has already observed keys enters its first epoch with
// state a replay must carry, so that epoch replays even when a fresh
// tracker would count it exactly; its query resets the tracker, and the
// later epochs, each within N keys, are skipped. Here a stale key holds
// count 100 in a three-entry Space-Saving table, so the first epoch's
// top 2 reports it beside the epoch's hotter key.
func TestScoreReplaysPreobservedTrackerFirstEpoch(t *testing.T) {
	cfg := tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 3, K: 2}
	preobserved := func() *tracker.Tracker {
		tr := tracker.New(cfg)
		tr.ObserveKeyN(1000, 100)
		return tr
	}
	var wt WeightedTrace
	for i, page := range []uint64{1, 1, 2, 3, 3, 3, 4, 5, 5} {
		wt.Accs = append(wt.Accs, trace.Access{Time: 1 + 10*uint64(i), Addr: mem.PhysAddr(page << mem.PageShift)})
		wt.Weights = append(wt.Weights, 1)
	}
	tr := preobserved()
	got := ScoreTrackerOnWeightedTrace(tr, wt, EpochByTime(30))
	want := streamScore(preobserved(), wt, EpochByTime(30))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("score %v, full replay %v", got, want)
	}
	if got >= 1 {
		t.Fatalf("score %v: the stale key went unseen", got)
	}
	if tr.Queries() != 1 {
		t.Fatalf("tracker answered %d queries, want 1 (the first epoch only)", tr.Queries())
	}
}
