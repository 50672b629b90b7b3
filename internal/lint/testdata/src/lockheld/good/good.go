// Package good holds lock-discipline patterns lockheld must accept:
// blocking only after unlocking, cond.Wait (which releases the lock),
// non-blocking selects, early-return unlock branches, and goroutines
// launched under a lock that block only in their own frame.
package good

import (
	"sync"
	"time"
)

type server struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ch     chan int
	closed bool
	n      int
}

func (s *server) unlockThenSleep() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

func (s *server) condWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 {
		s.cond.Wait() // releases s.mu while waiting: allowed
	}
}

func (s *server) nonBlockingSelect() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
		return true
	default:
		return false
	}
}

// earlyReturnBranch unlocks on the fast path and returns; the sleep
// after the branch runs unlocked on that path and is not reached
// locked on any path.
func (s *server) earlyReturnBranch() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.n++
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// selectUnlockEveryArm releases the lock in every arm, returning from
// one; the sleep after the select runs unlocked.
func (s *server) selectUnlockEveryArm() {
	s.mu.Lock()
	select {
	case <-s.ch:
		s.mu.Unlock()
		return
	default:
		s.mu.Unlock()
	}
	time.Sleep(time.Millisecond)
}

// goUnderLock launches a goroutine while holding the lock; the
// goroutine's own blocking runs in a frame that holds nothing.
func (s *server) goUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		time.Sleep(time.Millisecond)
		s.ch <- 1
	}()
}

// drain receives what goUnderLock's goroutine sends, giving the send
// its escape edge.
func (s *server) drain() int { return <-s.ch }

// deferredUnlockNoBlocking is the common pattern: a pure in-memory
// critical section under a deferred unlock.
func (s *server) deferredUnlockNoBlocking() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}
