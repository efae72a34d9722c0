// Package cluster describes edge-device pools: per-device compute and
// memory capabilities and the LAN connecting them. The paper's testbed —
// NVIDIA Jetson Nano boards on a 128 Mbps wireless LAN — is the default
// preset; heterogeneous presets support the planner's generality tests.
package cluster

import "fmt"

// DeviceSpec is the capability envelope of one edge device.
type DeviceSpec struct {
	Name string
	// GFLOPS is sustained float32 throughput in billions of FLOPs per
	// second, as achieved on transformer GEMMs (not the marketing peak).
	GFLOPS float64
	// MemoryBytes is DRAM usable for training after the OS, runtime, and
	// framework take their share.
	MemoryBytes int64
	// LinkMbps is the device's LAN bandwidth in megabits per second.
	LinkMbps float64
	// LinkLatencySec is the per-message latency to a LAN peer.
	LinkLatencySec float64
}

// gib converts GiB to bytes.
func gib(g float64) int64 { return int64(g * float64(1<<30)) }

// FLOPSPerSec returns the sustained throughput in FLOPs per second.
func (d DeviceSpec) FLOPSPerSec() float64 { return d.GFLOPS * 1e9 }

// BytesPerSec returns the link bandwidth in bytes per second.
func (d DeviceSpec) BytesPerSec() float64 { return d.LinkMbps * 1e6 / 8 }

// JetsonNano returns the paper's evaluation device: 472 GFLOPS fp16
// peak ⇒ ≈236 GFLOPS fp32 peak, derated to sustained GEMM throughput;
// 128 Mbps LAN (paper §6.1). Of the 4 GiB unified DRAM, the OS, CUDA
// context, and training runtime consume ≈2.5 GiB, leaving ≈1.45 GiB of
// budget for model state — the calibration that reproduces the paper's
// Table 2 OOM pattern.
func JetsonNano() DeviceSpec {
	return DeviceSpec{
		Name:           "jetson-nano",
		GFLOPS:         200,
		MemoryBytes:    gib(1.45),
		LinkMbps:       128,
		LinkLatencySec: 2e-3,
	}
}

// JetsonTX2 returns a stronger heterogeneous-pool member.
func JetsonTX2() DeviceSpec {
	return DeviceSpec{
		Name:           "jetson-tx2",
		GFLOPS:         420,
		MemoryBytes:    gib(6.5),
		LinkMbps:       256,
		LinkLatencySec: 2e-3,
	}
}

// RaspberryPi4 returns a weaker heterogeneous-pool member (CPU only).
func RaspberryPi4() DeviceSpec {
	return DeviceSpec{
		Name:           "raspberry-pi-4",
		GFLOPS:         24,
		MemoryBytes:    gib(2.8),
		LinkMbps:       128,
		LinkLatencySec: 2e-3,
	}
}

// Cluster is an ordered pool of devices on one LAN.
type Cluster struct {
	Devices []DeviceSpec
}

// Homogeneous returns a cluster of n identical devices.
func Homogeneous(spec DeviceSpec, n int) Cluster {
	if n < 1 {
		panic("cluster: need at least one device")
	}
	devs := make([]DeviceSpec, n)
	for i := range devs {
		devs[i] = spec
		devs[i].Name = fmt.Sprintf("%s-%d", spec.Name, i)
	}
	return Cluster{Devices: devs}
}

// Nanos returns the paper's testbed: n Jetson Nanos.
func Nanos(n int) Cluster { return Homogeneous(JetsonNano(), n) }

// Size returns the device count.
func (c Cluster) Size() int { return len(c.Devices) }

// Survivors filters c down to the devices not out of service, preserving
// order — the device set handed back to the planner after a re-plan.
// out is asked by name, so devices sharing a name share a fate. c is not
// modified.
func (c Cluster) Survivors(out func(name string) bool) Cluster {
	left := Cluster{Devices: make([]DeviceSpec, 0, len(c.Devices))}
	for _, d := range c.Devices {
		if !out(d.Name) {
			left.Devices = append(left.Devices, d)
		}
	}
	return left
}
