package dca

import (
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
)

// guardedKernel builds the canonical bounds-checked kernel shape:
//
//	gid = ctaid*ntid + tid
//	if gid >= n goto DONE
//	r5 = gid + 1        (out of slice: counted, not interpreted)
//	DONE: ret
//
// Blocks: [0..5 guard], [6 body], [7 ret].
func guardedKernel(t *testing.T, n int64) *ptx.Kernel {
	t.Helper()
	k := &ptx.Kernel{Name: "guard"}
	k.Append(ptx.Instruction{Opcode: "mov.u32", Operands: []string{"%r1", "%tid.x"}})
	k.Append(ptx.Instruction{Opcode: "mov.u32", Operands: []string{"%r2", "%ctaid.x"}})
	k.Append(ptx.Instruction{Opcode: "mov.u32", Operands: []string{"%r3", "%ntid.x"}})
	k.Append(ptx.Instruction{Opcode: "mad.lo.s32", Operands: []string{"%r4", "%r2", "%r3", "%r1"}})
	k.Append(ptx.Instruction{Opcode: "setp.ge.s32", Operands: []string{"%p1", "%r4", imm(n)}})
	k.Append(ptx.Instruction{Pred: "%p1", Opcode: "bra", Operands: []string{"DONE"}})
	k.Append(ptx.Instruction{Opcode: "add.s32", Operands: []string{"%r5", "%r4", "1"}})
	if err := k.AddLabel("DONE"); err != nil {
		t.Fatal(err)
	}
	k.Append(ptx.Instruction{Opcode: "ret"})
	return k
}

// TestBlockVisitsGuarded: the bounds-checked body block is visited by
// in-bounds threads only; the guard and exit blocks by every thread.
func TestBlockVisitsGuarded(t *testing.T) {
	k := guardedKernel(t, 48)
	l := ptxgen.Launch{Kernel: "guard", GridX: 2, BlockX: 32, Threads: 48}
	kr, err := AnalyzeKernelLaunch(k, l, Options{BlockCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{64, 48, 64}
	if len(kr.BlockVisits) != len(want) {
		t.Fatalf("BlockVisits = %v, want %v", kr.BlockVisits, want)
	}
	for i, w := range want {
		if kr.BlockVisits[i] != w {
			t.Errorf("BlockVisits[%d] = %d, want %d", i, kr.BlockVisits[i], w)
		}
	}

	// Without BlockCounts the profile is not collected.
	kr, err = AnalyzeKernelLaunch(k, l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kr.BlockVisits != nil {
		t.Errorf("BlockVisits without BlockCounts = %v, want nil", kr.BlockVisits)
	}
}

// TestBlockVisitsCountedLoop: closed-form loop accounting feeds the
// visit profile — the loop block is charged once per iteration — and
// the profile is consistent with the executed-instruction total.
func TestBlockVisitsCountedLoop(t *testing.T) {
	k := countedLoop(t, 5)
	l := ptxgen.Launch{Kernel: "counted", GridX: 2, BlockX: 32, Threads: 64}
	kr, err := AnalyzeKernelLaunch(k, l, Options{BlockCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	// Blocks: [mov], [add setp bra] x5 iterations, [ret].
	want := []int64{64, 320, 64}
	if len(kr.BlockVisits) != len(want) {
		t.Fatalf("BlockVisits = %v, want %v", kr.BlockVisits, want)
	}
	for i, w := range want {
		if kr.BlockVisits[i] != w {
			t.Errorf("BlockVisits[%d] = %d, want %d", i, kr.BlockVisits[i], w)
		}
	}
	// No thread exits mid-block, so the per-block visit counts weighted
	// by block length must reproduce the launch's executed total.
	g, err := BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for bi, b := range g.Blocks {
		sum += kr.BlockVisits[bi] * int64(b.End-b.Start)
	}
	if sum != kr.Executed {
		t.Errorf("visit-weighted instruction total = %d, Executed = %d", sum, kr.Executed)
	}
}

// TestBlockVisitsCacheDetached: a cache hit must hand back a private
// copy of the visit profile, and the BlockCounts knob must key the
// cache (a profile-free entry cannot satisfy a profiled request).
func TestBlockVisitsCacheDetached(t *testing.T) {
	k := guardedKernel(t, 48)
	l := ptxgen.Launch{Kernel: "guard", GridX: 2, BlockX: 32, Threads: 48}
	cache := analysiscache.New(64)
	opts := Options{BlockCounts: true, Cache: cache}
	first, err := AnalyzeKernelLaunch(k, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	first.BlockVisits[0] = -1
	second, err := AnalyzeKernelLaunch(k, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.BlockVisits[0] == -1 {
		t.Error("cache hit shares the BlockVisits slice with a prior caller")
	}
	// Same cache, BlockCounts off: must not inherit the profiled entry.
	plain, err := AnalyzeKernelLaunch(k, l, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if plain.BlockVisits != nil {
		t.Errorf("BlockCounts=false hit a profiled cache entry: %v", plain.BlockVisits)
	}
}
