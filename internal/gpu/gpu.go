// Package gpu models CPU-GPU shared virtual memory address translation
// (Sec 2, 6.3): a GPU of many shader cores, each with private L1 TLBs,
// sharing an L2 TLB, a hardware page-table walker, and the process page
// table with the CPU ("a pointer is a pointer everywhere"). GPU TLBs
// service hundreds of concurrent threads, so per-core reference streams
// are interleaved round-robin, producing the heavy, low-locality TLB
// traffic that makes GPUs so sensitive to TLB design.
package gpu

import (
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/core"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

// Config sizes the GPU.
type Config struct {
	// Cores is the number of shader cores (each gets private L1 TLBs).
	Cores int
	// Design selects the TLB organization per core + shared L2.
	Design mmu.Design
}

// DefaultCores matches the scale of the gem5-gpu studies the paper cites.
const DefaultCores = 16

// System is a GPU attached to a process address space.
type System struct {
	cfg     Config
	cores   []*mmu.MMU
	streams []workload.Stream
	as      *osmm.AddressSpace
}

// perCoreL1 builds the paper's GPU L1 TLBs (Sec 6.3): per shader core, a
// 128-entry 4-way set-associative 4KB TLB next to split superpage TLBs
// (32-entry 4-way 2MB, 4-entry fully-associative 1GB).
func perCoreL1(design mmu.Design, coreID int) (tlb.TLB, error) {
	switch design {
	case mmu.DesignSplit:
		small, e1 := tlb.NewSetAssoc("gpu-4K", addr.Page4K, 32, 4)
		mid, e2 := tlb.NewSetAssoc("gpu-2M", addr.Page2M, 8, 4)
		big, e3 := tlb.NewSetAssoc("gpu-1G", addr.Page1G, 1, 4)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return tlb.NewSplit(fmt.Sprintf("gpu-split-L1.%d", coreID), small, mid, big)
	case mmu.DesignMix:
		// Area-equivalent: 128+32+4 = 164 entries -> 32 sets x 5 ways.
		return core.New(core.Config{
			Name: fmt.Sprintf("gpu-mix-L1.%d", coreID),
			Sets: 32, Ways: 5, Coalesce: 32, Encoding: core.Bitmap,
		})
	case mmu.DesignRehash:
		inner, e1 := tlb.NewHashRehash(fmt.Sprintf("gpu-rehash-L1.%d", coreID), 32, 5,
			addr.Page4K, addr.Page2M, addr.Page1G)
		pred, e2 := tlb.NewSizePredictor(256)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return tlb.NewPredictedRehash(inner, pred), nil
	case mmu.DesignSkew:
		inner, e1 := tlb.NewSkewAllSizes(fmt.Sprintf("gpu-skew-L1.%d", coreID), 16, 2)
		pred, e2 := tlb.NewSizePredictor(256)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return tlb.NewPredictedSkew(inner, pred), nil
	default:
		return nil, fmt.Errorf("gpu: unsupported design %q", design)
	}
}

// sharedL2 builds the GPU-wide L2 TLB for a design.
func sharedL2(design mmu.Design) (tlb.TLB, error) {
	switch design {
	case mmu.DesignSplit:
		hr, e1 := tlb.NewHashRehash("gpu-L2-4K2M", 128, 4, addr.Page4K, addr.Page2M)
		big, e2 := tlb.NewSetAssoc("gpu-L2-1G", addr.Page1G, 8, 4)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return tlb.NewSplit("gpu-split-L2", hr, big)
	case mmu.DesignMix:
		return core.New(core.Config{
			Name: "gpu-mix-L2", Sets: 64, Ways: 8, Coalesce: 64, Encoding: core.Bitmap,
		})
	case mmu.DesignRehash:
		inner, e1 := tlb.NewHashRehash("gpu-rehash-L2", 128, 4, addr.Page4K, addr.Page2M, addr.Page1G)
		pred, e2 := tlb.NewSizePredictor(256)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return tlb.NewPredictedRehash(inner, pred), nil
	case mmu.DesignSkew:
		inner, e1 := tlb.NewSkewAllSizes("gpu-skew-L2", 64, 2)
		pred, e2 := tlb.NewSizePredictor(256)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return tlb.NewPredictedSkew(inner, pred), nil
	default:
		return nil, fmt.Errorf("gpu: unsupported design %q", design)
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// New builds a GPU over the process address space; every core shares the
// L2 TLB, cache hierarchy, and page table, as in gem5-gpu models.
func New(cfg Config, as *osmm.AddressSpace, caches *cachesim.Hierarchy) (*System, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = DefaultCores
	}
	s := &System{cfg: cfg, as: as}
	l2, err := sharedL2(cfg.Design)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := perCoreL1(cfg.Design, i)
		if err != nil {
			return nil, err
		}
		m, err := mmu.New(mmu.Config{
			Name:   fmt.Sprintf("%s.core%d", cfg.Design, i),
			Levels: mmu.L(l1, l2),
		}, as.PageTable(), caches, as.HandleFault)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, m)
	}
	return s, nil
}

// AttachStreams gives each core its reference stream. The builder
// receives the core index so workloads can tile their data.
func (s *System) AttachStreams(build func(coreID int) workload.Stream) {
	s.streams = s.streams[:0]
	for i := range s.cores {
		s.streams = append(s.streams, build(i))
	}
}

// Run interleaves n references round-robin across the cores, the
// many-threads-in-flight pattern of a GPU. Faults abort with an error.
func (s *System) Run(n uint64) error {
	if len(s.streams) != len(s.cores) {
		return fmt.Errorf("gpu: %d streams for %d cores", len(s.streams), len(s.cores))
	}
	for i := uint64(0); i < n; i++ {
		c := int(i) % len(s.cores)
		ref := s.streams[c].Next()
		res := s.cores[c].Translate(tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC})
		if res.Faulted {
			return fmt.Errorf("gpu: core %d faulted at %v", c, ref.VA)
		}
	}
	return nil
}

// ResetStats zeroes all core counters (for warm-up separation).
func (s *System) ResetStats() {
	for _, c := range s.cores {
		c.ResetStats()
	}
}

// Stats sums all cores' counters.
func (s *System) Stats() mmu.Stats {
	var total mmu.Stats
	for _, c := range s.cores {
		total.Add(c.Stats())
	}
	return total
}

// Cores exposes the per-core MMUs (diagnostics).
func (s *System) Cores() []*mmu.MMU { return s.cores }

// KernelSpec is a Rodinia-style GPU workload: a per-core stream builder
// over a shared data region.
type KernelSpec struct {
	Name string
	// Build returns core coreID's stream over [base, base+footprint).
	Build func(coreID, cores int, base addr.V, footprint uint64, rng *simrand.Source) workload.Stream
}

// Kernels returns the GPU workload suite, mirroring the locality classes
// of the Rodinia applications the paper uses (Sec 6.4).
func Kernels() []KernelSpec {
	tile := func(coreID, cores int, base addr.V, fp uint64) (addr.V, uint64) {
		sz := fp / uint64(cores)
		return base + addr.V(uint64(coreID)*sz), sz
	}
	return []KernelSpec{
		{
			// hotspot: per-tile 2D stencil.
			Name: "hotspot",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				b, sz := tile(id, n, base, fp)
				return workload.NewStencil(b, sz, 1<<20, kpc("hotspot", id))
			},
		},
		{
			// bfs: irregular power-law neighbour reads over the whole
			// graph; cores share the structure.
			Name: "bfs",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				return workload.MustMix(rng.Split(),
					workload.Weighted{Stream: workload.NewZipf(base, fp/2, rng.Split(), 0.99, 0.05, kpc("bfs", id)), Weight: 0.6},
					workload.Weighted{Stream: workload.NewSequential(base+addr.V(fp/2), fp/2, 64, false, kpc("bfs-edges", id)), Weight: 0.4},
				)
			},
		},
		{
			// backprop: layered sweeps per tile, reading weights and
			// writing deltas in roughly equal measure.
			Name: "backprop",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				b, sz := tile(id, n, base, fp)
				return workload.MustMix(rng.Split(),
					workload.Weighted{Stream: workload.NewSequential(b, sz/2, 32, false, kpc("backprop-r", id)), Weight: 0.55},
					workload.Weighted{Stream: workload.NewSequential(b+addr.V(sz/2), sz/2, 32, true, kpc("backprop-w", id)), Weight: 0.45},
				)
			},
		},
		{
			// kmeans: streaming points against hot shared centroids.
			Name: "kmeans",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				b, sz := tile(id, n, base, fp-fp/16)
				centroids := base + addr.V(fp-fp/16)
				return workload.MustMix(rng.Split(),
					workload.Weighted{Stream: workload.NewSequential(b, sz, 64, false, kpc("kmeans", id)), Weight: 0.7},
					workload.Weighted{Stream: workload.NewUniform(centroids, fp/16, rng.Split(), 0.3, kpc("kmeans-c", id)), Weight: 0.3},
				)
			},
		},
		{
			// gaussian: row elimination — long strided sweeps, mostly
			// reads of the pivot row with writes to the reduced rows.
			Name: "gaussian",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				b, sz := tile(id, n, base, fp)
				return workload.MustMix(rng.Split(),
					workload.Weighted{Stream: workload.NewSequential(b, sz, 4096, false, kpc("gaussian-r", id)), Weight: 0.7},
					workload.Weighted{Stream: workload.NewSequential(b, sz, 8192, true, kpc("gaussian-w", id)), Weight: 0.3},
				)
			},
		},
		{
			// pathfinder: wavefront rows with neighbour reads.
			Name: "pathfinder",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				b, sz := tile(id, n, base, fp)
				return workload.NewStencil(b, sz, 256<<10, kpc("pathfinder", id))
			},
		},
		{
			// srad: image-diffusion stencil with coefficient reads from a
			// shared plane.
			Name: "srad",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				b, sz := tile(id, n, base, fp-fp/8)
				coeff := base + addr.V(fp-fp/8)
				return workload.MustMix(rng.Split(),
					workload.Weighted{Stream: workload.NewStencil(b, sz, 512<<10, kpc("srad", id)), Weight: 0.8},
					workload.Weighted{Stream: workload.NewSequential(coeff, fp/8, 64, false, kpc("srad-c", id)), Weight: 0.2},
				)
			},
		},
		{
			// lud: blocked matrix decomposition — dense block sweeps with
			// strided pivot-row reads.
			Name: "lud",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				b, sz := tile(id, n, base, fp)
				return workload.MustMix(rng.Split(),
					workload.Weighted{Stream: workload.NewSequential(b, sz, 16, true, kpc("lud-blk", id)), Weight: 0.6},
					workload.Weighted{Stream: workload.NewSequential(b, sz, 16<<10, false, kpc("lud-piv", id)), Weight: 0.4},
				)
			},
		},
		{
			// nw (Needleman-Wunsch): anti-diagonal wavefront — two strided
			// streams offset by one row.
			Name: "nw",
			Build: func(id, n int, base addr.V, fp uint64, rng *simrand.Source) workload.Stream {
				b, sz := tile(id, n, base, fp)
				row := uint64(64 << 10)
				return workload.MustMix(rng.Split(),
					workload.Weighted{Stream: workload.NewSequential(b, sz, row+8, true, kpc("nw-d", id)), Weight: 0.5},
					workload.Weighted{Stream: workload.NewSequential(b+addr.V(row), sz-row, row+8, false, kpc("nw-u", id)), Weight: 0.5},
				)
			},
		},
	}
}

// KernelByName finds a kernel spec.
func KernelByName(name string) (KernelSpec, error) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return KernelSpec{}, fmt.Errorf("gpu: unknown kernel %q", name)
}

// kpc derives a stable synthetic PC for a kernel site on a core.
func kpc(name string, coreID int) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range []byte(name) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h ^ uint64(coreID)<<8
}
