package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The box this benchmark runs on shares its host: a fixed kernel was
// seen to take 8 ms in one second and 14 ms in the next, and 27 ms
// against 47 ms for minutes at a time, with no steal time reported. No
// window length averages that away, so every timing is read against a
// yardstick measured beside it: a fixed piece of arithmetic of the
// benchmark's own (plain Go, nothing of the program's, so that no
// change to the program moves it) runs between blocks of operations,
// and each duration is scaled by the machine speed the readings around
// it show. Reported times are therefore "at nominal machine speed";
// the times as measured and the yardstick readings are printed beside
// them.

// nominalCalibMs is what one yardstick point takes on the quiet box.
const nominalCalibMs = 8.0

// speedExponent is how much of the yardstick's slow-down the program
// shares. The yardstick keeps a core's load and store ports full, so a
// busy neighbour slows it more than it slows the program, whose time
// also goes to allocation, scheduling and waiting: when the yardstick
// took 1.7× as long, the four workloads took 1.2–1.5× as long (log-log
// slopes 0.4–0.7), and on a nearly quiet box, where the readings' own
// noise dilutes the relation, 0.0–0.45. Scaling by the full ratio would
// overshoot and add the yardstick's noise; 0.5 leaves the least spread
// over both conditions.
const speedExponent = 0.5

// calibReach is how many readings on each side of an interval join the
// ones inside it. One 16 ms reading is itself noisy; the speed is taken
// over a whole phase of a run, a median of a dozen readings or more.
const calibReach = 2

// Yardstick shape: per lane a [64,256]·[256,1024] product over arrays of
// its own, about 1.3 MB, so that it feels the shared last-level cache as
// the program's matmuls do.
const calM, calK, calN = 64, 256, 1024

type calibLane struct{ a, b, c []float32 }

func newCalibLane(seed uint32) *calibLane {
	l := &calibLane{a: make([]float32, calM*calK), b: make([]float32, calK*calN), c: make([]float32, calM*calN)}
	x := seed
	for _, s := range [][]float32{l.a, l.b} {
		for i := range s {
			x = x*1664525 + 1013904223
			s[i] = float32(x>>8)/float32(1<<24) - 0.5
		}
	}
	return l
}

func (l *calibLane) run() {
	for i := range l.c {
		l.c[i] = 0
	}
	for i := 0; i < calM; i++ {
		crow := l.c[i*calN : (i+1)*calN]
		for p := 0; p < calK; p++ {
			av := l.a[i*calK+p]
			brow := l.b[p*calN : (p+1)*calN]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// calibPoint is one yardstick reading.
type calibPoint struct {
	at time.Time
	ms float64
}

// calibrator takes yardstick readings between blocks of operations and
// answers how fast the machine was around an interval.
type calibrator struct {
	lanes  []*calibLane
	mu     sync.Mutex
	points []calibPoint
	spent  time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < workers; i++ {
		c.lanes = append(c.lanes, newCalibLane(uint32(i+1)))
	}
	return c
}

// point runs the yardstick twice on every lane at once (the program is
// idle meanwhile: callers sit between operations) and records the mean.
func (c *calibrator) point() {
	t0 := time.Now()
	for rep := 0; rep < 2; rep++ {
		var wg sync.WaitGroup
		for _, l := range c.lanes {
			wg.Add(1)
			go func(l *calibLane) {
				defer wg.Done()
				l.run()
			}(l)
		}
		wg.Wait()
	}
	d := time.Since(t0)
	c.mu.Lock()
	c.points = append(c.points, calibPoint{at: t0.Add(d / 2), ms: d.Seconds() * 1e3 / 2})
	c.spent += d
	c.mu.Unlock()
}

// points3 takes three readings in a row, for the places (around a
// set-up) where readings are otherwise few.
func (c *calibrator) points3() {
	for i := 0; i < 3; i++ {
		c.point()
	}
}

// speed returns the machine speed around the interval [from, to], 1
// being the quiet box: (nominal ÷ median reading)^speedExponent over the
// readings inside the interval and calibReach more on each side. A
// duration measured at speed 0.8 counts for 80 % of itself.
func (c *calibrator) speed(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.points) == 0 {
		return 1
	}
	lo := sort.Search(len(c.points), func(i int) bool { return c.points[i].at.After(from) }) - calibReach
	hi := sort.Search(len(c.points), func(i int) bool { return !c.points[i].at.Before(to) }) + calibReach - 1
	if lo < 0 {
		lo = 0
	}
	if hi >= len(c.points) {
		hi = len(c.points) - 1
	}
	ms := make([]float64, 0, hi-lo+1)
	for _, p := range c.points[lo : hi+1] {
		ms = append(ms, p.ms)
	}
	return math.Pow(nominalCalibMs/median(ms), speedExponent)
}

// readings returns every yardstick reading in milliseconds.
func (c *calibrator) readings() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.points))
	for i, p := range c.points {
		out[i] = p.ms
	}
	return out
}

// spentTotal returns the yardstick's own running time so far, which
// callers subtract from the walls that contain it.
func (c *calibrator) spentTotal() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent
}
