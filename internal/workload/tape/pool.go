package tape

import (
	"sync"

	"m5/internal/obs"
	"m5/internal/workload"
)

// Pool is a keyed, byte-bounded cache of tapes shared across experiment
// cells and harnesses. Open returns a replay cursor for the catalog
// identity, recording the tape on first use; when the byte budget would
// be exceeded, the least-recently-opened tape is evicted (it stops
// growing; cursors already replaying it are unaffected, and cursors that
// outrun it continue on private live generators).
//
// A Pool is safe for concurrent use. Its obs metrics — published under a
// "tape" scope as bytes / hits / misses / evictions / live_tails — are
// only touched under the pool mutex, which makes the (single-goroutine)
// obs.Registry safe to share with the pool as long as no other goroutine
// mutates it concurrently; give the pool its own registry in parallel
// harnesses.
type Pool struct {
	budget uint64

	mu        sync.Mutex
	tapes     map[Key]*Tape //m5:guardedby mu
	detachedQ []*Tape       //m5:guardedby mu (evicted tapes whose parked sources await release)
	lruTick   uint64        //m5:guardedby mu
	bytes     uint64        //m5:guardedby mu
	hits      uint64        //m5:guardedby mu
	misses    uint64        //m5:guardedby mu
	evictions uint64        //m5:guardedby mu
	liveTails uint64        //m5:guardedby mu
	closed    bool          //m5:guardedby mu

	gBytes     *obs.Gauge
	cHits      *obs.Counter
	cMisses    *obs.Counter
	cEvicts    *obs.Counter
	cLiveTails *obs.Counter
}

// Stats is a point-in-time summary of pool occupancy.
type Stats struct {
	Tapes     int    // live tapes
	Accesses  uint64 // committed accesses across live tapes
	Bytes     uint64 // encoded bytes across live tapes
	Hits      uint64 // Open calls served by an existing tape
	Misses    uint64 // Open calls that created a tape
	Evictions uint64 // tapes evicted to stay within the byte budget
	LiveTails uint64 // cursors that fell back to private live generation
}

// NewPool builds a pool bounded to budget bytes of encoded tape
// (budget 0 means unbounded). The registry may be nil (metrics
// disabled); when set, metrics register under a "tape" scope.
func NewPool(budget uint64, reg *obs.Registry) *Pool {
	w := reg.Scope("tape")
	return &Pool{
		budget:     budget,
		tapes:      map[Key]*Tape{},
		gBytes:     w.Gauge("bytes"),
		cHits:      w.Counter("hits"),
		cMisses:    w.Counter("misses"),
		cEvicts:    w.Counter("evictions"),
		cLiveTails: w.Counter("live_tails"),
	}
}

// Open returns a replay cursor positioned at the start of the named
// benchmark's stream, recording or reusing the backing tape as needed.
// On a closed pool it falls back to a plain catalog generator.
func (p *Pool) Open(name string, scale workload.Scale, seed int64) (workload.Generator, error) {
	if p == nil {
		return workload.New(name, scale, seed)
	}
	key := Key{Name: name, Scale: scale, Seed: seed}
	t := p.lookup(key)
	if t == nil {
		return workload.New(name, scale, seed)
	}
	if err := t.init(); err != nil {
		p.forget(key, t)
		return nil, err
	}
	return t.NewCursor(), nil
}

// lookup returns key's tape, creating it on a miss, and stamps its use
// for eviction order. It returns nil once the pool is closed.
func (p *Pool) lookup(key Key) *Tape {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	t, ok := p.tapes[key]
	if ok {
		p.hits++
		p.cHits.Inc()
	} else {
		p.misses++
		p.cMisses.Inc()
		t = newTape(key, p)
		p.tapes[key] = t
	}
	p.lruTick++
	t.lastUse = p.lruTick
	return t
}

// forget drops a tape whose recording failed to start, unless key has
// already moved on to another tape.
func (p *Pool) forget(key Key, t *Tape) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tapes[key] == t {
		delete(p.tapes, key)
	}
}

// reserve charges n bytes of upcoming recording against the budget,
// evicting least-recently-opened tapes (never the requester) to make
// room. It returns false when the budget cannot accommodate the charge.
// Called with the requester's tape mutex held; takes only the pool
// mutex.
func (p *Pool) reserve(t *Tape, n uint64) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.detached.Load() {
		return false
	}
	for p.budget > 0 && p.bytes+n > p.budget {
		victim := p.evictionVictim(t)
		if victim == nil {
			return false
		}
		victim.detached.Store(true)
		p.bytes -= victim.bytes
		delete(p.tapes, victim.key)
		p.detachedQ = append(p.detachedQ, victim)
		p.evictions++
		p.cEvicts.Inc()
	}
	p.bytes += n
	t.bytes += n
	p.gBytes.Set(p.bytes)
	return true
}

// noteLiveTail records a cursor falling off the recorded prefix onto a
// private live generator — the signal that the byte budget (or an
// eviction) is forcing regeneration instead of replay. Called by
// Tape.extend with the tape mutex held; takes only the pool mutex (same
// order as reserve).
func (p *Pool) noteLiveTail() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.liveTails++
	p.cLiveTails.Inc()
}

// evictionVictim picks the least-recently-opened tape other than the
// requester, preferring tapes that actually hold bytes.
//
//m5:locked mu
func (p *Pool) evictionVictim(requester *Tape) *Tape {
	var victim *Tape
	//m5:orderinvariant min-fold over (lastUse, key), a total order: every
	// iteration order converges on the same victim.
	for _, t := range p.tapes {
		if t == requester || t.bytes == 0 {
			continue
		}
		if victim == nil || t.lastUse < victim.lastUse ||
			(t.lastUse == victim.lastUse && keyLess(t.key, victim.key)) {
			victim = t
		}
	}
	return victim
}

// keyLess is the deterministic tie-break order for tapes whose lruTick
// stamps collide (tapes opened before any Open bumped the clock).
func keyLess(a, b Key) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Scale != b.Scale {
		return a.Scale < b.Scale
	}
	return a.Seed < b.Seed
}

// release returns n unused reserved bytes to the budget.
func (p *Pool) release(t *Tape, n uint64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t.bytes -= n
	if !t.detached.Load() {
		p.bytes -= n
		p.gBytes.Set(p.bytes)
	}
}

// reap releases the parked live sources of evicted tapes. Callers must
// hold no tape mutex. (Eviction itself runs under the pool mutex while
// the requester holds its own tape mutex, so it cannot take the victim's
// mutex without risking deadlock; the source is parked on a queue and
// closed here instead.)
func (p *Pool) reap() {
	p.mu.Lock()
	victims := p.detachedQ
	p.detachedQ = nil
	p.mu.Unlock()
	for _, t := range victims {
		t.Close()
	}
}

// Stats returns current occupancy and traffic counters.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Tapes:     len(p.tapes),
		Bytes:     p.bytes,
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
		LiveTails: p.liveTails,
	}
	//m5:orderinvariant an integer sum of atomic loads: every visit order
	// reaches the same total.
	for _, t := range p.tapes {
		s.Accesses += t.committed.Load().total
	}
	return s
}

// Close seals every tape (releasing parked live sources and their
// goroutines) and drops the pool's contents. Cursors already open keep
// replaying their snapshots; later Opens fall back to live generation.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	for _, t := range p.seal() {
		t.Close()
	}
}

// seal marks the pool closed, empties it, and returns every tape it held,
// live and evicted, for Close to close outside the pool mutex. It returns
// nil when the pool was already closed.
func (p *Pool) seal() []*Tape {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var all []*Tape
	//m5:orderinvariant Close is commutative across tapes; shutdown order
	// cannot reach any simulation result.
	for _, t := range p.tapes {
		all = append(all, t)
	}
	all = append(all, p.detachedQ...)
	p.tapes = map[Key]*Tape{}
	p.detachedQ = nil
	p.bytes = 0
	p.gBytes.Set(0)
	return all
}
