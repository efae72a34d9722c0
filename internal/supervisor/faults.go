package supervisor

import (
	"fmt"
	"time"

	"pac/internal/parallel"
)

// Crash injects the death of one pool device after a number of
// transport operations, in the hybrid phase (epoch 1, the pipeline
// fabric) or the cached phase (epochs ≥ 2, the data-parallel fabric).
type Crash struct {
	Device, After int
	Phase         string // "hybrid" or "cached"
}

// Slow injects a persistent per-send delay into every stage of one
// lane's pipeline fabric: a deterministic straggler.
type Slow struct {
	Lane  int
	Delay time.Duration
}

// shaper sets one injected fault on one fabric's fault config.
type shaper func(id parallel.FabricID, fc *parallel.FaultConfig)

// shapeFaults turns FaultDrop, Crash and Slow into the first attempt's
// transport fault hook and announces each. The crash and straggler
// shapers compose with the background drops into one wrapper, so a run
// can combine, say, a slow lane with drops.
func (s *Supervisor) shapeFaults() error {
	pool, stages := s.cfg.Pool, s.core.Stages
	drop := s.cfg.FaultDrop
	if drop > 0 {
		fmt.Fprintf(s.out, "fault injection: %.0f%% transient send drops\n", drop*100)
	}
	var shapers []shaper
	if c := s.cfg.Crash; c != nil && c.Device >= 0 {
		if c.Device >= pool.Size() {
			return fmt.Errorf("crash-device %d out of range (pool has %d devices)", c.Device, pool.Size())
		}
		// The crash fires in the first attempt, which runs on the whole
		// pool: the device's place there is its pool index.
		name := pool.Devices[c.Device].Name
		switch c.Phase {
		case "hybrid":
			shapers = append(shapers, func(id parallel.FabricID, fc *parallel.FaultConfig) {
				if at := place(s.attemptDevices(), name); id.Kind == "pipe" && at >= 0 && id.Index == at/stages {
					fc.Crash = map[int]int{at % stages: c.After}
				}
			})
			fmt.Fprintf(s.out, "fault injection: device %d (%s, lane %d stage %d) crashes after %d transport ops in the hybrid phase\n",
				c.Device, name, c.Device/stages, c.Device%stages, c.After)
		case "cached":
			shapers = append(shapers, func(id parallel.FabricID, fc *parallel.FaultConfig) {
				if at := place(s.attemptDevices(), name); id.Kind == "dp" && at >= 0 {
					fc.Crash = map[int]int{at: c.After}
				}
			})
			fmt.Fprintf(s.out, "fault injection: device %d (%s, DP rank %d) crashes after %d transport ops in the cached phase\n",
				c.Device, name, c.Device, c.After)
		default:
			return fmt.Errorf("unknown crash-phase %q (want hybrid or cached)", c.Phase)
		}
	}
	if sl := s.cfg.Slow; sl != nil && sl.Lane >= 0 {
		if sl.Lane >= s.core.Lanes {
			return fmt.Errorf("slow-lane %d out of range (%d lanes)", sl.Lane, s.core.Lanes)
		}
		shapers = append(shapers, func(id parallel.FabricID, fc *parallel.FaultConfig) {
			if id.Kind == "pipe" && id.Index == sl.Lane {
				fc.SlowRank = map[int]time.Duration{}
				for st := 0; st < stages; st++ {
					fc.SlowRank[st] = sl.Delay
				}
			}
		})
		fmt.Fprintf(s.out, "fault injection: lane %d delayed %v per send (persistent straggler)\n", sl.Lane, sl.Delay)
	}
	s.core.WrapTransport = faultWrapper(drop, shapers)
	return nil
}

// faultWrapper is the transport fault hook of an attempt: every fabric
// drops sends with probability drop, and the shapers add their faults
// on top. nil when there is nothing to inject.
func faultWrapper(drop float64, shapers []shaper) func(parallel.FabricID, []parallel.Transport) []parallel.Transport {
	if drop == 0 && len(shapers) == 0 {
		return nil
	}
	return func(id parallel.FabricID, eps []parallel.Transport) []parallel.Transport {
		fc := parallel.FaultConfig{Seed: 1, Drop: drop}
		for _, shape := range shapers {
			shape(id, &fc)
		}
		return parallel.WrapFaulty(eps, fc)
	}
}
