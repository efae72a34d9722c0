// Package sim is a discrete-event simulator for distributed fine-tuning
// schedules. It produces the virtual wall-clock times behind the paper's
// duration and throughput results: 1F1B pipeline execution (with
// inter-stage transfers and per-stage in-flight limits), data-parallel
// steps with ring AllReduce, and the cache/parameter redistribution
// collective.
//
// The simulator works on abstract task costs (seconds of compute, bytes
// of traffic) supplied by the cost model; it knows nothing about
// tensors.
package sim

import "container/heap"

// Event is a scheduled callback.
type event struct {
	at  float64
	seq int // tie-break for deterministic ordering
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Sim is a discrete-event simulation clock.
type Sim struct {
	now float64
	q   eventQueue
	seq int
}

// New returns a simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.q, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn delay seconds from now.
func (s *Sim) After(delay float64, fn func()) { s.At(s.now+delay, fn) }

// Run processes events until the queue drains and returns the final
// virtual time.
func (s *Sim) Run() float64 {
	for s.q.Len() > 0 {
		e := heap.Pop(&s.q).(*event)
		s.now = e.at
		e.fn()
	}
	return s.now
}

// Resource is a serially shared executor (one device's compute). Work
// acquired while busy queues behind the current occupant.
type Resource struct {
	busyUntil float64
}

// Acquire reserves the resource for dur seconds starting no earlier than
// t, returning the completion time.
func (r *Resource) Acquire(t, dur float64) float64 {
	start := t
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	return r.busyUntil
}

// BusyUntil returns the time the resource frees up.
func (r *Resource) BusyUntil() float64 { return r.busyUntil }

// TransferTime returns the time to ship bytes over a link with the given
// bandwidth (bytes/sec) and per-message latency.
func TransferTime(bytes int64, bytesPerSec, latencySec float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return latencySec + float64(bytes)/bytesPerSec
}

// RingAllReduceTime returns the time for an n-way ring all-reduce of
// bytes payload: 2(n−1) steps each moving bytes/n, pipelined over the
// slowest link.
func RingAllReduceTime(bytes int64, n int, bytesPerSec, latencySec float64) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	steps := 2 * (n - 1)
	chunk := float64(bytes) / float64(n)
	return float64(steps) * (latencySec + chunk/bytesPerSec)
}

// BroadcastTime returns the time for one device to send bytes to n−1
// peers over a shared LAN (serialized on the sender's uplink).
func BroadcastTime(bytes int64, n int, bytesPerSec, latencySec float64) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	return float64(n-1) * TransferTime(bytes, bytesPerSec, latencySec)
}
