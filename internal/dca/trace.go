package dca

import (
	"errors"
	"fmt"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
)

// TraceThread abstractly executes the in-bounds representative thread
// of a launch on the compiled engine and returns its dynamic
// instruction trace as a sequence of instruction classes — the input a
// cycle-level simulator replays per warp. Skip-runs and closed-form
// loops expand into the classes they stand for. maxLen bounds the trace
// (0 = 10M).
func TraceThread(k *ptx.Kernel, l ptxgen.Launch, maxLen int) ([]ptx.Class, error) {
	if maxLen <= 0 {
		maxLen = 10_000_000
	}
	d := ptx.DecodeKernel(k)
	g, loops, _ := kernelCFG(k, nil)
	ck, err := compile(d, buildControlSlice(d, buildDepGraph(d)), ExecOptions{MaxSteps: int64(maxLen)}, g, loops)
	if err != nil {
		return nil, err
	}
	trace := make([]ptx.Class, 0, 1024)
	fr := &frame{}
	fr.bindParams(k, l.Params)
	t := thread{
		c: ck, k: k, params: l.Params, fr: fr, trace: &trace, res: &ExecResult{},
		ctx: ThreadCtx{NTid: int64(l.BlockX), NCtaID: int64(l.GridX)},
	}
	if err := t.run(); err != nil {
		var limit *stepLimitError
		if errors.As(err, &limit) {
			return nil, fmt.Errorf("dca: trace of kernel %q exceeds %d instructions", k.Name, maxLen)
		}
		return nil, err
	}
	return trace, nil
}
