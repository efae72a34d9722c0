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
