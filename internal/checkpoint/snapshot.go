// Snapshot is the durable training-state format behind elastic resume:
// where the adapter checkpoint (checkpoint.go) stores only the trained
// weights for deployment, a snapshot captures everything needed to
// continue training bit-identically from the middle of a run — adapter
// weights, optimizer moments, the (epoch, step) cursor, the data-order
// seed, a config fingerprint, and the activation-cache manifest.
//
// File layout (little-endian throughout):
//
//	u32 magic "PACS", u32 version
//	u32 section count, then per section:
//	  u32 kind, u32 payload length, u32 CRC-32 (IEEE) of payload, payload
//
// Every section carries its own CRC so a torn or bit-flipped write is
// detected at load — Load never hands damaged state to the trainer; it
// returns ErrCorrupt and the caller falls back to an older snapshot.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pac/internal/tensor"
)

const (
	snapMagic   = 0x50414353 // "PACS"
	snapVersion = 1

	secMeta     = 1
	secAdapters = 2
	secOptim    = 3
	secCache    = 4
)

// OptGroup is one optimizer's exported state: in phase 1 there is one
// group per pipeline stage (the per-stage optimizers), in cached epochs
// a single group (the data-parallel replicas are in lockstep, so rank
// 0's state stands for all).
type OptGroup struct {
	Step    int
	Tensors []*tensor.Tensor
}

// Snapshot is a deserialized training snapshot.
type Snapshot struct {
	Fingerprint uint64
	Task        string
	Seed        int64
	// Epoch and Step form the resume cursor: Step completed steps of
	// Epoch are reflected in the state; training resumes at batch Step.
	Epoch int
	Step  int
	// Stages and Lanes record the plan shape the state was captured
	// under (optimizer groups are per stage; a resume with a different
	// stage count cannot import them).
	Stages int
	Lanes  int
	// Adapters are the trainable parameter values in Trainable() order.
	Adapters []*tensor.Tensor
	// OptGroups carry the optimizer moments (see OptGroup).
	OptGroups []OptGroup
	// CacheTaps and CacheSums are the activation-cache manifest: per
	// cached sample id, the CRC-32 of its encoded entry. Salvage uses
	// them to verify surviving shards after a crash.
	CacheTaps int
	CacheSums map[int]uint32
}

// appendTensors frames a tensor list: a u32 count, then one tensor
// record each.
func appendTensors(b []byte, ts []*tensor.Tensor) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ts)))
	for _, t := range ts {
		b = tensor.AppendRecord(b, t)
	}
	return b
}

// encodeSnapshot serializes a snapshot into the sectioned format.
func encodeSnapshot(s *Snapshot) []byte {
	le := binary.LittleEndian
	meta := le.AppendUint64(nil, s.Fingerprint)
	meta = le.AppendUint64(meta, uint64(s.Seed))
	for _, v := range []int{s.Epoch, s.Step, s.Stages, s.Lanes, len(s.Task)} {
		meta = le.AppendUint32(meta, uint32(v))
	}
	meta = append(meta, s.Task...)

	optim := le.AppendUint32(nil, uint32(len(s.OptGroups)))
	for _, g := range s.OptGroups {
		optim = appendTensors(le.AppendUint32(optim, uint32(g.Step)), g.Tensors)
	}

	sections := [][]byte{meta, appendTensors(nil, s.Adapters), optim}
	// A nil CacheSums means no cache manifest (RestoreSnapshot keeps
	// its own), so it writes no cache section and decodes back to nil.
	if s.CacheSums != nil {
		ids := make([]int, 0, len(s.CacheSums))
		for id := range s.CacheSums {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		cache := le.AppendUint32(nil, uint32(s.CacheTaps))
		cache = le.AppendUint32(cache, uint32(len(ids)))
		for _, id := range ids {
			cache = le.AppendUint32(le.AppendUint32(cache, uint32(id)), s.CacheSums[id])
		}
		sections = append(sections, cache)
	}

	b := le.AppendUint32(nil, snapMagic)
	b = le.AppendUint32(b, snapVersion)
	b = le.AppendUint32(b, uint32(len(sections)))
	for kind, payload := range sections {
		b = le.AppendUint32(b, uint32(secMeta+kind))
		b = le.AppendUint32(b, uint32(len(payload)))
		b = le.AppendUint32(b, crc32.ChecksumIEEE(payload))
		b = append(b, payload...)
	}
	return b
}

// decodeSnapshot parses a snapshot, verifying the per-section CRCs.
// Damage of any kind — truncation, bit flips, a torn tail — yields an
// error wrapping ErrCorrupt, never a silently wrong snapshot; only an
// unsupported version is a plain error.
func decodeSnapshot(blob []byte) (*Snapshot, error) {
	r := tensor.NewReader(blob)
	if r.U32() != snapMagic {
		return nil, fmt.Errorf("snapshot: bad magic: %w", ErrCorrupt)
	}
	if v := r.U32(); len(blob) < 8 {
		return nil, fmt.Errorf("snapshot: truncated header: %w", ErrCorrupt)
	} else if v != snapVersion {
		return nil, fmt.Errorf("snapshot: unsupported version %d", v)
	}
	nsec := r.U32()
	if nsec > 64 {
		return nil, fmt.Errorf("snapshot: bad section count: %w", ErrCorrupt)
	}
	var sec [secCache + 1]*tensor.Reader // payload readers by kind
	for i := uint32(0); i < nsec; i++ {
		kind, length, sum := r.U32(), r.U32(), r.U32()
		switch payload := r.Bytes(int(length)); {
		case payload == nil: // truncated; End reports it
		// A damaged kind field would pass the payload CRC yet make the
		// section silently vanish — reject it here instead.
		case kind < secMeta || kind > secCache:
			return nil, fmt.Errorf("snapshot: unknown section kind %d: %w", kind, ErrCorrupt)
		case sec[kind] != nil:
			return nil, fmt.Errorf("snapshot: duplicate section kind %d: %w", kind, ErrCorrupt)
		case crc32.ChecksumIEEE(payload) != sum:
			return nil, fmt.Errorf("snapshot: section %d CRC mismatch: %w", kind, ErrCorrupt)
		default:
			sec[kind] = tensor.NewReader(payload)
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("snapshot: %w: %w", err, ErrCorrupt)
	}
	m := sec[secMeta]
	if m == nil {
		return nil, fmt.Errorf("snapshot: missing meta section: %w", ErrCorrupt)
	}

	s := &Snapshot{Fingerprint: m.U64(), Seed: int64(m.U64())}
	for _, f := range []*int{&s.Epoch, &s.Step, &s.Stages, &s.Lanes} {
		*f = int(m.U32())
	}
	s.Task = string(m.Bytes(int(m.U32())))

	var bad error // a tensor count over its bound
	tensors := func(r *tensor.Reader) (ts []*tensor.Tensor) {
		n := r.U32()
		if n > 1<<20 {
			bad = fmt.Errorf("snapshot: bad tensor count %d: %w", n, ErrCorrupt)
			return nil
		}
		for ; n > 0; n-- {
			t := r.Record()
			if t == nil {
				break
			}
			ts = append(ts, t)
		}
		return ts
	}
	if a := sec[secAdapters]; a != nil {
		s.Adapters = tensors(a)
	}
	if o := sec[secOptim]; o != nil {
		n := o.U32()
		if n > 1<<12 {
			return nil, fmt.Errorf("snapshot: bad optimizer group count: %w", ErrCorrupt)
		}
		for ; n > 0 && bad == nil; n-- {
			step := int(o.U32())
			s.OptGroups = append(s.OptGroups, OptGroup{Step: step, Tensors: tensors(o)})
		}
	}
	if c := sec[secCache]; c != nil {
		s.CacheTaps = int(c.U32())
		n := c.U32()
		if n > 1<<24 {
			return nil, fmt.Errorf("snapshot: bad cache manifest count: %w", ErrCorrupt)
		}
		pairs := c.Bytes(8 * int(n))
		s.CacheSums = make(map[int]uint32, len(pairs)/8)
		for i := 0; i < len(pairs); i += 8 {
			s.CacheSums[int(binary.LittleEndian.Uint32(pairs[i:]))] = binary.LittleEndian.Uint32(pairs[i+4:])
		}
	}
	if bad != nil {
		return nil, bad
	}
	for kind, r := range sec {
		if r == nil {
			continue
		}
		if err := r.End(); err != nil {
			return nil, fmt.Errorf("snapshot: section %d: %w: %w", kind, err, ErrCorrupt)
		}
	}
	return s, nil
}

// saveSnapshot writes a snapshot atomically (temp file + fsync +
// rename): a crash mid-save leaves the previous snapshot intact.
func saveSnapshot(path string, s *Snapshot) error {
	if err := atomicWrite(path, encodeSnapshot(s)); err != nil {
		return fmt.Errorf("snapshot: write: %w", err)
	}
	return nil
}

// loadSnapshot reads and verifies one snapshot file.
func loadSnapshot(path string) (*Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	return decodeSnapshot(blob)
}

const snapPattern = "snap-%08d.pacs"

// Latest returns the newest loadable snapshot in dir and its path. A
// corrupt newest file (torn write, bit rot) is skipped and the previous
// one is returned — the fallback the recovery supervisor relies on.
// Returns os.ErrNotExist (wrapped) when no usable snapshot exists.
func Latest(dir string) (*Snapshot, string, error) {
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		return nil, "", err
	}
	var firstErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, fmt.Sprintf(snapPattern, seqs[i]))
		s, err := loadSnapshot(path)
		if err == nil {
			return s, path, nil
		}
		mSnapCorrupt.Inc()
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, "", fmt.Errorf("snapshot: no usable snapshot in %s (newest: %w): %w", dir, firstErr, os.ErrNotExist)
	}
	return nil, "", fmt.Errorf("snapshot: no snapshot in %s: %w", dir, os.ErrNotExist)
}

func snapshotSeqs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []int
	for _, de := range entries {
		var seq int
		if n, err := fmt.Sscanf(de.Name(), snapPattern, &seq); n == 1 && err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// Snapshotter writes snapshots off the training path: Write hands the
// capture to a background goroutine and returns immediately, coalescing
// to the latest capture when writes are slower than the training loop
// produces them. Old files beyond the retention count are pruned so the
// directory always holds the newest few generations — enough for the
// corrupt-newest fallback without unbounded growth.
type Snapshotter struct {
	dir  string
	keep int

	ch   chan *Snapshot
	done chan struct{}

	mu      sync.Mutex
	seq     int
	written int
	err     error
}

// NewSnapshotter opens dir (creating it if needed) and resumes the
// sequence numbering after any snapshots already present. keep < 1
// defaults to 3 retained generations.
func NewSnapshotter(dir string, keep int) (*Snapshotter, error) {
	if keep < 1 {
		keep = 3
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: create dir: %w", err)
	}
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: scan dir: %w", err)
	}
	next := 0
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	w := &Snapshotter{dir: dir, keep: keep, seq: next,
		ch: make(chan *Snapshot, 1), done: make(chan struct{})}
	go w.loop()
	return w, nil
}

// Write queues a snapshot for background persistence. If a write is
// already in flight the pending capture is replaced (latest wins) —
// the training loop never blocks on the disk.
func (w *Snapshotter) Write(s *Snapshot) {
	for {
		select {
		case w.ch <- s:
			return
		default:
			select {
			case <-w.ch:
			default:
			}
		}
	}
}

func (w *Snapshotter) loop() {
	defer close(w.done)
	for s := range w.ch {
		w.mu.Lock()
		seq := w.seq
		w.seq++
		w.mu.Unlock()
		path := filepath.Join(w.dir, fmt.Sprintf(snapPattern, seq))
		t0 := time.Now()
		err := saveSnapshot(path, s)
		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = err
		}
		if err == nil {
			w.written++
			mSnapWrites.Inc()
			mSnapWriteSec.Observe(time.Since(t0).Seconds())
		}
		w.mu.Unlock()
		if err == nil {
			w.prune(seq)
		}
	}
}

func (w *Snapshotter) prune(newest int) {
	seqs, err := snapshotSeqs(w.dir)
	if err != nil {
		return
	}
	for _, seq := range seqs {
		if seq <= newest-w.keep {
			if os.Remove(filepath.Join(w.dir, fmt.Sprintf(snapPattern, seq))) == nil {
				mSnapPrunes.Inc()
			}
		}
	}
}

// Written returns how many snapshots have been persisted so far.
func (w *Snapshotter) Written() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Close drains pending writes and returns the first persistence error,
// if any. Write must not be called after Close.
func (w *Snapshotter) Close() error {
	close(w.ch)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
