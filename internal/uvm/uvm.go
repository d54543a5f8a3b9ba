// Package uvm implements the paper's extended Unified Virtual Memory
// (§4.5–§4.6): page-table entries that point into GPU memory, host memory,
// or flash; a GPU-side TLB; and the migration metadata queues plus arbiter
// that batch tensor migrations into transfer sets (Figure 10).
//
// G10 migrates whole tensors, so the simulator translates at tensor
// granularity: each tensor owns one PTE (kept by internal/gpu with the
// tensor's state), a migration rewrites it, and the TLB caches a tensor's
// first page only (see DESIGN.md §2).
package uvm

import "fmt"

// Location identifies which memory a page currently lives in — the paper's
// extension is precisely that a PTE may name a flash address (§4.5).
type Location int

const (
	// Unmapped marks an absent translation (page fault on access).
	Unmapped Location = iota
	// InGPU is on-board HBM.
	InGPU
	// InHost is CPU DRAM.
	InHost
	// InFlash is the SSD (the G10 extension).
	InFlash
)

func (l Location) String() string {
	switch l {
	case Unmapped:
		return "unmapped"
	case InGPU:
		return "gpu"
	case InHost:
		return "host"
	case InFlash:
		return "flash"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// PTE is a leaf page-table entry: where the page is and the device-local
// frame/page number there. The zero PTE is an absent translation.
type PTE struct {
	Loc  Location
	Addr uint64
}
