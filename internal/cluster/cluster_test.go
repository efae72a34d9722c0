package cluster

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDeviceSpecDerivedQuantities(t *testing.T) {
	d := DeviceSpec{GFLOPS: 100, MemoryBytes: 2 << 30, LinkMbps: 80}
	if d.FLOPSPerSec() != 100e9 {
		t.Fatalf("FLOPSPerSec %v", d.FLOPSPerSec())
	}
	if d.BytesPerSec() != 10e6 {
		t.Fatalf("BytesPerSec %v", d.BytesPerSec())
	}
}

func TestPresetsOrdering(t *testing.T) {
	nano, tx2, rpi := JetsonNano(), JetsonTX2(), RaspberryPi4()
	if !(rpi.GFLOPS < nano.GFLOPS && nano.GFLOPS < tx2.GFLOPS) {
		t.Fatal("compute ordering RPi < Nano < TX2 violated")
	}
	if nano.MemoryBytes <= 0 || nano.LinkMbps != 128 {
		t.Fatalf("nano preset %+v", nano)
	}
}

func TestHomogeneousNamesUnique(t *testing.T) {
	c := Homogeneous(JetsonNano(), 5)
	seen := map[string]bool{}
	for _, d := range c.Devices {
		if seen[d.Name] {
			t.Fatalf("duplicate name %s", d.Name)
		}
		if !strings.HasPrefix(d.Name, "jetson-nano-") {
			t.Fatalf("unexpected name %s", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestHomogeneousRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Homogeneous(JetsonNano(), 0)
}

func TestPropClusterAggregates(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		c := Nanos(n)
		if c.Size() != n {
			return false
		}
		for _, d := range c.Devices {
			if d.GFLOPS != JetsonNano().GFLOPS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLivenessSurvivorsPreservesOrder(t *testing.T) {
	pool := Nanos(4)
	dead := pool.Devices[1].Name
	s := pool.Survivors(func(name string) bool { return name == dead })
	if s.Size() != 3 {
		t.Fatalf("survivors: %d, want 3", s.Size())
	}
	want := []string{pool.Devices[0].Name, pool.Devices[2].Name, pool.Devices[3].Name}
	for i, d := range s.Devices {
		if d.Name != want[i] {
			t.Fatalf("survivor %d = %s, want %s (order not preserved)", i, d.Name, want[i])
		}
	}
}

func TestSurvivorsEdgeCases(t *testing.T) {
	// Nothing out of service: every device survives.
	pool := Nanos(3)
	if s := pool.Survivors(func(string) bool { return false }); s.Size() != 3 {
		t.Fatalf("in-service devices dropped: %d survive, want 3", s.Size())
	}

	// Emptying: all out ⇒ empty survivors, original intact.
	if s := pool.Survivors(func(string) bool { return true }); s.Size() != 0 {
		t.Fatalf("out-of-service devices survived: %d", s.Size())
	}
	if pool.Size() != 3 {
		t.Fatal("Survivors mutated the input cluster")
	}

	// Duplicate names share a fate: both copies survive or neither.
	dup := Cluster{Devices: []DeviceSpec{{Name: "x"}, {Name: "x"}, {Name: "y"}}}
	if s := dup.Survivors(func(name string) bool { return name == "z" }); s.Size() != 3 {
		t.Fatalf("duplicate-name survivors: %d, want 3", s.Size())
	}
	s := dup.Survivors(func(name string) bool { return name == "x" })
	if s.Size() != 1 || s.Devices[0].Name != "y" {
		t.Fatalf("duplicate-name removal: %v", s.Devices)
	}
}
