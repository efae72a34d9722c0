package main

import (
	"sync/atomic"
	"time"

	"pac/internal/acache"
)

// timedStore decorates an activation cache for the traced run: it
// forwards every method, times Get and Put, tracks the largest Bytes()
// seen after a Put, and records one span per call while the recorder's
// gate is open. The embedded Store forwards the methods that need no
// timing; call and hit counts stay the store's own (Stats).
type timedStore struct {
	acache.Store
	rec    *recorder
	parent atomic.Int64 // span id of the phase call now running

	getNs, putNs atomic.Int64
	peak         atomic.Int64
}

func (s *timedStore) Get(id int) (acache.Entry, bool) {
	t0 := time.Now()
	e, ok := s.Store.Get(id)
	t1 := time.Now()
	s.getNs.Add(int64(t1.Sub(t0)))
	s.rec.add("acache.get", int(s.parent.Load()), int64(id), 0, t0, t1)
	return e, ok
}

func (s *timedStore) Put(id int, taps acache.Entry) error {
	t0 := time.Now()
	err := s.Store.Put(id, taps)
	t1 := time.Now()
	s.putNs.Add(int64(t1.Sub(t0)))
	b := s.Store.Bytes()
	for {
		old := s.peak.Load()
		if b <= old || s.peak.CompareAndSwap(old, b) {
			break
		}
	}
	s.rec.add("acache.put", int(s.parent.Load()), int64(id), 0, t0, t1)
	return err
}
