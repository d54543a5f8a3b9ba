// Package gpu is the runtime execution simulator: it replays a profiled
// kernel trace while executing the instrumented program's migration
// instructions (or a baseline policy's dynamic decisions) over a shared
// PCIe/SSD/host interconnect, a flash device with FTL and GC, and the
// extended-UVM page table and TLB.
//
// This substitutes for the paper's UVMSmart+GPGPU-Sim replay framework
// (§5): kernels run for their traced durations; a kernel cannot start until
// its working set is resident in GPU memory; migrations proceed
// concurrently with compute and contend for bandwidth; absent tensors
// trigger page faults with the Table 2 fault-handling latency; and when a
// single kernel's working set exceeds GPU memory, UVM-based policies stream
// the overflow at a degraded on-demand bandwidth (FlashNeuron-style
// non-UVM managers fail instead — footnote 1 of the paper).
package gpu

import (
	"g10sim/internal/ssd"
	"g10sim/internal/units"
)

// Config describes the simulated system (Table 2 defaults).
type Config struct {
	GPUCapacity  units.Bytes
	HostCapacity units.Bytes
	// PCIeBandwidth is the GPU link's per-direction bandwidth.
	PCIeBandwidth units.Bandwidth
	// HostDRAMBandwidth bounds host-side staging (rarely the bottleneck).
	HostDRAMBandwidth units.Bandwidth
	// SSD is the flash device configuration.
	SSD ssd.Config

	// FaultLatency is the GPU page-fault round trip (Table 2: 45 µs),
	// paid by UVM policies on demand misses.
	FaultLatency units.Duration
	// HostMediationOverhead is the extra software latency per flash
	// migration when the SSD is reached through the host fault path
	// rather than G10's extended UVM (§7.2's G10 vs G10-Host gap).
	HostMediationOverhead units.Duration
	// DMALatency is the setup cost of any migration.
	DMALatency units.Duration
	// FaultEfficiency is the fraction of channel bandwidth on-demand
	// (page-fault) migrations achieve versus planned batched transfers
	// when the fault is serviced through the host UVM driver.
	FaultEfficiency float64
	// DirectFaultLatency and DirectFaultEfficiency apply instead when the
	// policy's extended UVM (or GPUDirect library) services the demand
	// miss without the host round trip (§4.5: "reduced software overhead
	// of accessing flash pages and handling page faults").
	DirectFaultLatency    units.Duration
	DirectFaultEfficiency float64
	// HostMediationEfficiency is the throughput fraction flash transfers
	// achieve when bounced through host software (non-extended-UVM
	// systems); 1.0 for direct access.
	HostMediationEfficiency float64

	// MigrationChunk is the transfer-set granularity (Figure 10): tensor
	// migrations move in chunks of this size, freeing and claiming GPU
	// memory incrementally the way page-group migrations do.
	MigrationChunk units.Bytes
	// PageSize is the UVM page size (Table 2: 4KB) used for fault and
	// traffic accounting.
	PageSize units.Bytes
	// TranslationGranularity is the page size of the tensors' virtual
	// spans and of the TLB; each tensor has one PTE (DESIGN.md §1–§2).
	TranslationGranularity units.Bytes
	// PTWalkLatency is charged per TLB miss.
	PTWalkLatency units.Duration

	// Iterations is how many training iterations to simulate; the last
	// one is measured (steady state). Default 2.
	Iterations int
}

// Default returns the paper's Table 2 configuration.
func Default() Config {
	return Config{
		GPUCapacity:             40 * units.GB,
		HostCapacity:            128 * units.GB,
		PCIeBandwidth:           units.GBps(15.754),
		HostDRAMBandwidth:       units.GBps(50),
		SSD:                     ssd.ZNAND(),
		FaultLatency:            45 * units.Microsecond,
		HostMediationOverhead:   25 * units.Microsecond,
		DMALatency:              3 * units.Microsecond,
		FaultEfficiency:         0.18,
		DirectFaultLatency:      10 * units.Microsecond,
		DirectFaultEfficiency:   0.60,
		HostMediationEfficiency: 0.80,
		MigrationChunk:          64 * units.MB,
		PageSize:                4 * units.KB,
		TranslationGranularity:  2 * units.MB,
		PTWalkLatency:           600 * units.Nanosecond,
		Iterations:              2,
	}
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.GPUCapacity <= 0 {
		c.GPUCapacity = d.GPUCapacity
	}
	if c.PCIeBandwidth <= 0 {
		c.PCIeBandwidth = d.PCIeBandwidth
	}
	if c.HostDRAMBandwidth <= 0 {
		c.HostDRAMBandwidth = d.HostDRAMBandwidth
	}
	if c.SSD.Capacity == 0 {
		c.SSD = d.SSD
	}
	if c.FaultLatency <= 0 {
		c.FaultLatency = d.FaultLatency
	}
	if c.HostMediationOverhead <= 0 {
		c.HostMediationOverhead = d.HostMediationOverhead
	}
	if c.DMALatency <= 0 {
		c.DMALatency = d.DMALatency
	}
	if c.FaultEfficiency <= 0 || c.FaultEfficiency > 1 {
		c.FaultEfficiency = d.FaultEfficiency
	}
	if c.DirectFaultLatency <= 0 {
		c.DirectFaultLatency = d.DirectFaultLatency
	}
	if c.DirectFaultEfficiency <= 0 || c.DirectFaultEfficiency > 1 {
		c.DirectFaultEfficiency = d.DirectFaultEfficiency
	}
	if c.HostMediationEfficiency <= 0 || c.HostMediationEfficiency > 1 {
		c.HostMediationEfficiency = d.HostMediationEfficiency
	}
	if c.MigrationChunk <= 0 {
		c.MigrationChunk = d.MigrationChunk
	}
	if c.PageSize <= 0 {
		c.PageSize = d.PageSize
	}
	if c.TranslationGranularity <= 0 {
		c.TranslationGranularity = d.TranslationGranularity
	}
	if c.PTWalkLatency <= 0 {
		c.PTWalkLatency = d.PTWalkLatency
	}
	if c.Iterations <= 0 {
		c.Iterations = d.Iterations
	}
	return c
}

// Result reports one simulated run.
type Result struct {
	Model  string
	Batch  int
	Policy string

	// IterationTime is the measured (steady-state) iteration time.
	IterationTime units.Duration
	// IdealTime is the stall-free iteration time (sum of kernel times).
	IdealTime units.Duration
	// StallTime is IterationTime − IdealTime.
	StallTime units.Duration
	// KernelTimes is the per-kernel wall time (including stalls) of the
	// measured iteration.
	KernelTimes []units.Duration

	// Traffic over the measured iteration, by channel and direction.
	SSDToGPU  units.Bytes
	GPUToSSD  units.Bytes
	HostToGPU units.Bytes
	GPUToHost units.Bytes

	// Faults counts demand-miss events in the measured iteration;
	// FaultedBytes the bytes they moved; FaultedPages the 4KB pages.
	Faults       int64
	FaultedBytes units.Bytes
	FaultedPages int64

	// OverflowKernels counts kernels whose working set exceeded GPU
	// memory and had to stream (footnote-1 situations).
	OverflowKernels int
	// OverflowBytes is the streamed volume.
	OverflowBytes units.Bytes

	SSDStats   ssd.Stats
	WriteAmp   float64
	TLBHitRate float64

	// Failed marks a run the policy could not execute (FlashNeuron with a
	// working set above GPU memory).
	Failed     bool
	FailReason string

	// Fault-injection accounting (faults.go): Restarts counts crash
	// recoveries, WastedTime the simulated progress lost to them, and
	// CheckpointBytes/CheckpointWrites the durable snapshot traffic the
	// tenant's recovery policy wrote to flash.
	Restarts         int
	WastedTime       units.Duration
	CheckpointBytes  units.Bytes
	CheckpointWrites int
}

// NormalizedPerf reports IterationTime relative to ideal (1.0 = ideal).
func (r Result) NormalizedPerf() float64 {
	if r.Failed || r.IterationTime <= 0 {
		return 0
	}
	return float64(r.IdealTime) / float64(r.IterationTime)
}

// Throughput reports examples/second for the measured iteration.
func (r Result) Throughput() float64 {
	if r.Failed || r.IterationTime <= 0 {
		return 0
	}
	return float64(r.Batch) / r.IterationTime.Seconds()
}

// TotalTraffic sums migration traffic in both directions.
func (r Result) TotalTraffic() units.Bytes {
	return r.SSDToGPU + r.GPUToSSD + r.HostToGPU + r.GPUToHost
}
