package gpusim

import (
	"fmt"

	"cnnperf/internal/dca"
	"cnnperf/internal/gpu"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
)

// The detailed simulator is the "GPGPU simulator" comparison point the
// paper's introduction discusses (GPGPU-Sim class tools): a
// cycle-approximate warp-level model that replays each kernel's dynamic
// instruction trace on a scoreboarded SM with per-class latencies and a
// bounded miss queue. It is far slower than both the analytic model and
// the ML estimator — which is exactly the trade-off the paper's approach
// escapes — and lands within the 10-20 % band of the analytic
// ground truth that the paper quotes for such simulators.

// latencyOf returns the effective issue-to-dependent-issue latency of a
// class in cycles. ALU results forward within a couple of cycles on real
// SMs; global-load latency is supplied per kernel (it depends on the L2
// hit rate), so ClassLoad here is only the fallback.
func latencyOf(c ptx.Class) int {
	switch c {
	case ptx.ClassIntALU, ptx.ClassCompare, ptx.ClassMove, ptx.ClassBranch, ptx.ClassControl:
		return 2
	case ptx.ClassFP32, ptx.ClassFMA:
		return 4
	case ptx.ClassConvert:
		return 6
	case ptx.ClassSFU:
		return 16
	case ptx.ClassLoadShared, ptx.ClassStoreShared:
		return 20
	case ptx.ClassLoad:
		return 350
	case ptx.ClassStore:
		return 4 // write-back, fire and forget
	case ptx.ClassSync:
		return 8
	default:
		return 8
	}
}

// detailedSMConfig fixes the per-SM microarchitecture of the model.
const (
	schedulersPerSM    = 4
	maxResidentWarps   = 64
	maxOutstandingMiss = 96
)

// simulateKernelDetailed replays one warp trace over the resident-warp
// population of an SM and returns the cycles one SM needs for one wave
// of warps. dramCyclesPerLoad is the per-SM DRAM service time of one
// coalesced 128-byte warp load (bandwidth constraint).
func simulateKernelDetailed(trace []ptx.Class, warps int, dramCyclesPerLoad float64, loadLatency int64) float64 {
	if loadLatency <= 0 {
		loadLatency = int64(latencyOf(ptx.ClassLoad))
	}
	if warps <= 0 || len(trace) == 0 {
		return 0
	}
	if warps > maxResidentWarps {
		warps = maxResidentWarps
	}
	pc := make([]int, warps)        // next trace index per warp
	ready := make([]int64, warps)   // cycle at which the warp may issue
	var outstanding int             // in-flight global loads
	missRet := make([]int64, 0, 16) // completion cycles of in-flight loads
	var dramBusy float64            // DRAM channel busy-until cycle

	done := 0
	var cycle int64
	rr := 0
	for done < warps {
		// Retire completed misses.
		kept := missRet[:0]
		for _, c := range missRet {
			if c > cycle {
				kept = append(kept, c)
			} else {
				outstanding--
			}
		}
		missRet = kept

		issued := 0
		for scan := 0; scan < warps && issued < schedulersPerSM; scan++ {
			w := (rr + scan) % warps
			if pc[w] >= len(trace) || ready[w] > cycle {
				continue
			}
			cls := trace[pc[w]]
			if cls == ptx.ClassLoad && outstanding >= maxOutstandingMiss {
				continue // memory queue full: warp stalls
			}
			lat := int64(latencyOf(cls))
			if cls == ptx.ClassLoad {
				lat = loadLatency
			}
			if cls == ptx.ClassLoad || cls == ptx.ClassStore {
				// Serialise on the SM's DRAM bandwidth share: the
				// transaction completes no earlier than the channel
				// frees up.
				start := float64(cycle)
				if dramBusy > start {
					start = dramBusy
				}
				dramBusy = start + dramCyclesPerLoad
				if cls == ptx.ClassLoad {
					complete := int64(dramBusy) + lat
					ready[w] = complete
					outstanding++
					missRet = append(missRet, complete)
				} else {
					ready[w] = cycle + lat
				}
			} else {
				ready[w] = cycle + lat
			}
			pc[w]++
			if pc[w] >= len(trace) {
				done++
			}
			issued++
		}
		rr = (rr + 1) % warps
		cycle++
		// Fast-forward across full stalls: jump to the next ready event.
		if issued == 0 {
			next := int64(1 << 62)
			for w := 0; w < warps; w++ {
				if pc[w] < len(trace) && ready[w] < next && ready[w] > cycle {
					next = ready[w]
				}
			}
			for _, c := range missRet {
				if c < next && c > cycle {
					next = c
				}
			}
			if next < int64(1<<62) && next > cycle {
				cycle = next
			}
		}
	}
	return float64(cycle)
}

// SimulateDetailed runs the cycle-approximate simulation of a compiled
// program on a GPU. It is orders of magnitude slower than Simulate (it
// walks every kernel's trace cycle by cycle) and agrees with it within
// the 10-20 % band the paper quotes for cycle-level simulators.
func SimulateDetailed(prog *ptxgen.Program, rep *dca.Report, spec gpu.Spec, cfg Config) (*Result, error) {
	if prog == nil || rep == nil {
		return nil, fmt.Errorf("gpusim: nil program or report")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("gpusim: %w", err)
	}
	clock := cfg.ClockMHz
	if clock <= 0 {
		clock = spec.BoostClockMHz
	}
	clockHz := clock * 1e6
	launchOverheadCycles := cfg.launchOverheadUs() * 1e-6 * clockHz
	// Per-SM DRAM service time of one 128-byte coalesced warp access.
	bytesPerCyclePerSM := spec.MemBandwidthGBs * 1e9 / clockHz / float64(spec.SMs)
	l2Bytes := float64(spec.L2CacheKB) * 1024

	res := &Result{Model: prog.Model, GPU: spec.Name, Instructions: rep.Executed}
	for i, l := range prog.Launches {
		k := prog.Module.Kernel(l.Kernel)
		if k == nil {
			return nil, fmt.Errorf("gpusim: unknown kernel %q", l.Kernel)
		}
		// L2-filtered miss ratio of this kernel, as in the analytic
		// model: only DRAM-bound traffic pays the bandwidth cost.
		kr := rep.Kernels[i]
		bytesMoved := 4 * float64(kr.PerClass[ptx.ClassLoad]+kr.PerClass[ptx.ClassStore])
		missRatio := 1.0
		if bytesMoved > 0 {
			missRatio = dramTraffic(bytesMoved, float64(kr.WorkingSetBytes), l2Bytes) / bytesMoved
		}
		dramCyclesPerLoad := 128.0 * missRatio / bytesPerCyclePerSM
		// Load latency blends the L2-hit and DRAM-miss paths.
		loadLatency := int64(60 + missRatio*290)
		trace, err := dca.TraceThread(k, l, 0)
		if err != nil {
			return nil, fmt.Errorf("gpusim: tracing %s: %w", l.Kernel, err)
		}
		totalWarps := (l.Threads + 31) / 32
		// Warps are spread over the SM array; each SM runs waves of up
		// to maxResidentWarps.
		warpsPerSM := (totalWarps + int64(spec.SMs) - 1) / int64(spec.SMs)
		resident := int(warpsPerSM)
		if resident > maxResidentWarps {
			resident = maxResidentWarps
		}
		waveCycles := simulateKernelDetailed(trace, resident, dramCyclesPerLoad, loadLatency)
		waves := float64(warpsPerSM) / float64(maxResidentWarps)
		if waves < 1 {
			waves = 1
		}
		cycles := waveCycles*waves + launchOverheadCycles
		res.Cycles += cycles
		res.Kernels = append(res.Kernels, KernelTiming{
			Kernel: l.Kernel,
			Cycles: cycles,
		})
	}
	if res.Cycles <= 0 {
		return nil, fmt.Errorf("gpusim: detailed simulation produced no cycles")
	}
	res.IPC = float64(res.Instructions) / res.Cycles
	res.RuntimeSec = res.Cycles / clockHz
	return res, nil
}
