// Package lockgood is the negative corpus for lockdiscipline: guarded
// access under the lock, blocking ops after release, selects with a
// default arm, condition-variable waits, and goroutine bodies that
// start with a fresh lock state.
package lockgood

import "sync"

// Store is a guarded counter store.
type Store struct {
	mu   sync.Mutex
	n    int //m5:guardedby mu
	cond *sync.Cond
	done chan struct{}
}

// Inc touches the guarded field under its lock.
func (s *Store) Inc() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// Value holds the lock with defer across the access.
func (s *Store) Value() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// peek is called with the lock held; the contract is declared instead
// of re-acquired.
//
//m5:locked mu
func (s *Store) peek() int {
	return s.n
}

// SendUnlocked releases the mutex before the send.
func (s *Store) SendUnlocked(ch chan int) {
	s.mu.Lock()
	v := s.n
	s.mu.Unlock()
	ch <- v
}

// TryNotify is non-blocking by construction: the select has a default.
func (s *Store) TryNotify() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.done <- struct{}{}:
	default:
	}
}

// WaitCond blocks on the condition variable, which releases the mutex
// by contract — exempt from the blocking rule.
func (s *Store) WaitCond() {
	s.mu.Lock()
	for s.n == 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Spawn launches a worker; the goroutine body starts with no lock, so
// its send is not a blocking-under-lock hazard.
func (s *Store) Spawn(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		ch <- 1
	}()
}

var _ = (*Store).peek
