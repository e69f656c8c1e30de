// Package smp models a multi-core CPU sharing one address space: every
// core has its own two-level TLB hierarchy, all cores share the page
// table, the cache hierarchy, and the OS — and page-table updates
// broadcast TLB shootdowns to every core (Sec 4.4's invalidation
// operations, exercised under real sharing).
//
// The interesting design consequence for MIX TLBs: invalidating one
// superpage touches mirror copies in many sets, and the two bundle
// encodings degrade differently — bitmaps clear one member bit and keep
// the bundle's neighbours cached, while range entries drop the whole
// coalesced bundle (the paper's simple option), making post-shootdown
// refill traffic visibly worse. InvalidationStudy in the experiments
// package quantifies this.
package smp

import (
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/chaos"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

// Config sizes the system.
type Config struct {
	Cores  int
	Design mmu.Design
}

// maxIPIRetries bounds the shootdown retry protocol: after this many lost
// IPIs to one core, delivery is forced (the NMI-class fallback real
// kernels reach for when a shootdown acknowledgement never arrives).
const maxIPIRetries = 3

// Stats aggregates system-wide shootdown activity.
type Stats struct {
	// Shootdowns counts munmap-driven invalidation broadcasts (one per
	// unmapped translation).
	Shootdowns uint64
	// IPIs counts per-core interrupts sent (Shootdowns x cores, plus any
	// retries under fault injection).
	IPIs uint64

	// Fault-injection accounting (zero without an injector).
	IPIsLost         uint64 // deliveries dropped by the injector
	IPIRetries       uint64 // re-sends after a missing acknowledgement
	IPIsDelayed      uint64 // deliveries that arrived late (but arrived)
	ForcedDeliveries uint64 // NMI-class fallbacks after maxIPIRetries
}

// System is a multi-core machine over one OS address space.
type System struct {
	cfg    Config
	as     *osmm.AddressSpace
	caches *cachesim.Hierarchy
	cores  []*mmu.MMU
	chaos  *chaos.Injector
	stats  Stats

	// tel is the telemetry hook block, nil unless AttachTelemetry enabled
	// it.
	tel *smpTel
}

// New builds the system; all cores share the cache hierarchy and fault
// into the same OS.
func New(cfg Config, as *osmm.AddressSpace, caches *cachesim.Hierarchy) (*System, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	s := &System{cfg: cfg, as: as, caches: caches}
	for i := 0; i < cfg.Cores; i++ {
		m, err := mmu.Build(cfg.Design, as.PageTable(), as.PageTable(), caches, as.HandleFault)
		if err != nil {
			return nil, fmt.Errorf("smp: core %d: %w", i, err)
		}
		s.cores = append(s.cores, m)
	}
	return s, nil
}

// SetChaos attaches a fault injector to the shootdown interconnect: IPIs
// may be dropped (triggering the retry protocol) or delayed.
func (s *System) SetChaos(in *chaos.Injector) { s.chaos = in }

// Cores exposes the per-core MMUs.
func (s *System) Cores() []*mmu.MMU { return s.cores }

// Stats returns shootdown counters.
func (s *System) Stats() Stats { return s.stats }

// Translate services a reference on one core.
func (s *System) Translate(core int, req tlb.Request) mmu.Result {
	return s.cores[core].Translate(req)
}

// Run interleaves per-core streams round-robin for n total references.
func (s *System) Run(streams []workload.Stream, n uint64) error {
	if len(streams) != len(s.cores) {
		return fmt.Errorf("smp: %d streams for %d cores", len(streams), len(s.cores))
	}
	for i := uint64(0); i < n; i++ {
		c := int(i) % len(s.cores)
		ref := streams[c].Next()
		if r := s.cores[c].Translate(tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC}); r.Faulted {
			return fmt.Errorf("smp: core %d faulted at %v", c, ref.VA)
		}
	}
	return nil
}

// ResetStats zeroes every core's counters (shootdown counters retained).
func (s *System) ResetStats() {
	for _, c := range s.cores {
		c.ResetStats()
	}
}

// Munmap unmaps a range through the OS and broadcasts the TLB shootdowns
// to every core, as an munmap syscall's IPI storm does. The initiating
// core waits for every acknowledgement before the unmap returns, so a
// lost IPI is retried (and eventually forced) rather than leaving a core
// with a stale translation.
func (s *System) Munmap(start addr.V, length uint64) {
	s.as.Munmap(start, length, func(tr pagetable.Translation) {
		s.stats.Shootdowns++
		before := s.stats.IPIs
		for _, c := range s.cores {
			s.deliverIPI(c, tr)
		}
		if s.tel != nil {
			s.tel.fanout.Observe(s.stats.IPIs - before)
		}
	})
}

// deliverIPI sends one shootdown IPI to one core under fault injection: a
// dropped delivery never acks, so the sender retries up to maxIPIRetries
// before forcing delivery. The invalidation always completes — the
// protocol trades extra IPIs for correctness, never correctness itself.
func (s *System) deliverIPI(c *mmu.MMU, tr pagetable.Translation) {
	for try := 0; ; try++ {
		s.stats.IPIs++
		if !s.chaos.DropIPI() {
			if s.chaos.DelayIPI() {
				s.stats.IPIsDelayed++
			}
			c.Invalidate(tr.VA, tr.Size)
			return
		}
		s.stats.IPIsLost++
		if try == maxIPIRetries {
			s.stats.ForcedDeliveries++
			c.Invalidate(tr.VA, tr.Size)
			return
		}
		s.stats.IPIRetries++
	}
}

// Aggregate sums all cores' MMU stats.
func (s *System) Aggregate() mmu.Stats {
	var total mmu.Stats
	for _, c := range s.cores {
		total.Add(c.Stats())
	}
	return total
}

// NewFromSpec builds a system whose cores each construct a fresh
// hierarchy from spec — which need not be a registered design. Cores get
// distinct MMU names ("<design>.core<i>") so multi-core telemetry keeps
// per-core series. Used by experiments that sweep custom configurations.
func NewFromSpec(cores int, as *osmm.AddressSpace, caches *cachesim.Hierarchy, spec mmu.DesignSpec) (*System, error) {
	if cores <= 0 {
		cores = 4
	}
	s := &System{cfg: Config{Cores: cores, Design: mmu.Design(spec.Name)}, as: as, caches: caches}
	for i := 0; i < cores; i++ {
		cfg, err := spec.BuildConfig(as.PageTable())
		if err != nil {
			return nil, fmt.Errorf("smp: core %d: %w", i, err)
		}
		cfg.Name = fmt.Sprintf("%s.core%d", spec.Name, i)
		m, err := mmu.New(cfg, as.PageTable(), caches, as.HandleFault)
		if err != nil {
			return nil, fmt.Errorf("smp: core %d: %w", i, err)
		}
		s.cores = append(s.cores, m)
	}
	return s, nil
}
