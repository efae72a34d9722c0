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

// shapeFaults turns FaultDrop, Crash and Slow into the first attempt's
// transport faults and announces each. Crash and straggler shapers
// compose into one transport wrapper, so a run can combine, say, a slow
// lane with background drops.
func (s *Supervisor) shapeFaults() error {
	pool, stages := s.cfg.Pool, s.core.Stages
	drop := s.cfg.FaultDrop
	if drop > 0 {
		s.core.Faults = &parallel.FaultConfig{Seed: 1, Drop: drop}
		fmt.Fprintf(s.out, "fault injection: %.0f%% transient send drops\n", drop*100)
	}
	var shapers []func(id parallel.FabricID, fc *parallel.FaultConfig)
	if c := s.cfg.Crash; c != nil && c.Device >= 0 {
		if c.Device >= pool.Size() {
			return fmt.Errorf("crash-device %d out of range (pool has %d devices)", c.Device, pool.Size())
		}
		name := pool.Devices[c.Device].Name
		switch c.Phase {
		case "hybrid":
			lane, stage := c.Device/stages, c.Device%stages
			shapers = append(shapers, func(id parallel.FabricID, fc *parallel.FaultConfig) {
				if id.Kind == "pipe" && id.Index == lane {
					fc.Crash = map[int]int{stage: c.After}
				}
			})
			fmt.Fprintf(s.out, "fault injection: device %d (%s, lane %d stage %d) crashes after %d transport ops in the hybrid phase\n",
				c.Device, name, lane, stage, c.After)
		case "cached":
			shapers = append(shapers, func(id parallel.FabricID, fc *parallel.FaultConfig) {
				if id.Kind == "dp" {
					fc.Crash = map[int]int{c.Device: c.After}
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
	if len(shapers) > 0 {
		s.core.WrapTransport = func(id parallel.FabricID, eps []parallel.Transport) []parallel.Transport {
			fc := parallel.FaultConfig{Seed: 1, Drop: drop}
			for _, shape := range shapers {
				shape(id, &fc)
			}
			return parallel.WrapFaulty(eps, fc)
		}
	}
	return nil
}
