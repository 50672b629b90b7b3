// Package bad holds lockheld violations: blocking operations while a
// sync mutex is held. Each flagged line carries a want expectation.
package bad

import (
	"net"
	"sync"
	"time"

	"rnb/internal/memcache"
	"rnb/internal/obs"
)

type server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	wg   sync.WaitGroup
	conn net.Conn
	mc   *memcache.Client
}

// readUnderLock makes the client's own round trip, both whole and in
// its two halves, with the mutex held.
func (s *server) readUnderLock(keys []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mc.TracedGetMulti(obs.TraceContext{}, keys) // want lockheld "memcache transport TracedGetMulti while s.mu is held"
	var h memcache.Pending
	s.mc.SendGet(obs.TraceContext{}, keys, &h) // want lockheld "memcache transport SendGet while s.mu is held"
	h.Collect()                                // want lockheld "memcache transport Collect while s.mu is held"
}

func (s *server) sleepUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want lockheld "time.Sleep while s.mu is held"
}

func (s *server) sendUnderLock(v int) {
	s.mu.Lock()
	s.ch <- v // want lockheld "channel send while s.mu is held"
	s.mu.Unlock()
}

func (s *server) recvUnderRLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return <-s.ch // want lockheld "channel receive while s.rw is held"
}

func (s *server) selectUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want lockheld "blocking select while s.mu is held"
	case v := <-s.ch:
		_ = v
	case s.ch <- 1:
	}
}

func (s *server) waitUnderLock() {
	s.mu.Lock()
	s.wg.Wait() // want lockheld "WaitGroup.Wait while s.mu is held"
	s.mu.Unlock()
}

func (s *server) dialUnderLock(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	conn, err := net.Dial("tcp", addr) // want lockheld "net.Dial while s.mu is held"
	if err != nil {
		return err
	}
	s.conn = conn
	return nil
}

func (s *server) writeUnderLock(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Write(p) // want lockheld "net conn Write while s.mu is held"
}

func (s *server) rangeUnderLock() (sum int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want lockheld "range over channel while s.mu is held"
		sum += v
	}
	return sum
}

// relockThenBlock checks that state tracking survives an unlock/lock
// pair: the second critical section is flagged, not the gap.
func (s *server) relockThenBlock() {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Millisecond) // not held here
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want lockheld "time.Sleep while s.mu is held"
	s.mu.Unlock()
}

// switchUnlockReturn unlocks only in the case that returns: every path
// that reaches the sleep still holds the lock.
func (s *server) switchUnlockReturn(mode int) {
	s.mu.Lock()
	switch mode {
	case 0:
		s.mu.Unlock()
		return
	default:
		s.ch = nil
	}
	time.Sleep(time.Millisecond) // want lockheld "time.Sleep while s.mu is held"
	s.mu.Unlock()
}

// selectUnlockReturn is the same shape in a non-blocking select; the
// receive in the arm's communication is the select's, not a separate
// blocking operation.
func (s *server) selectUnlockReturn() {
	s.mu.Lock()
	select {
	case <-s.ch:
		s.mu.Unlock()
		return
	default:
	}
	time.Sleep(time.Millisecond) // want lockheld "time.Sleep while s.mu is held"
	s.mu.Unlock()
}
