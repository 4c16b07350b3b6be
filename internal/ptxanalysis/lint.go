package ptxanalysis

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
)

// Severity grades a diagnostic.
type Severity int

const (
	// SevInfo marks observations with no correctness impact.
	SevInfo Severity = iota
	// SevWarning marks suspicious but executable constructs.
	SevWarning
	// SevError marks constructs the abstract executor must reject.
	SevError
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// UnmarshalJSON parses a severity name, so diagnostics survive a JSON
// round trip (the serving API returns them over the wire).
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("ptxanalysis: unknown severity %q", name)
	}
	return nil
}

// Diagnostic codes. The table is documented in DESIGN.md §Static
// Analysis.
const (
	// CodeUseBeforeDef: a register may be read before any definition.
	CodeUseBeforeDef = "PTXA001"
	// CodeDeadStore: a defined value is never consumed.
	CodeDeadStore = "PTXA002"
	// CodeUnreachable: a basic block has no path from the kernel entry.
	CodeUnreachable = "PTXA003"
	// CodeBranchIntoLoop: an edge enters a loop body bypassing its header.
	CodeBranchIntoLoop = "PTXA004"
	// CodeBarrierDivergent: a barrier does not post-dominate the entry, so
	// threads of one block may disagree on reaching it.
	CodeBarrierDivergent = "PTXA005"
	// CodeEmptyKernel: the kernel body has no instructions.
	CodeEmptyKernel = "PTXA006"
	// CodeIrreducibleLoop: a back edge whose target does not dominate its
	// source — irreducible (unstructured) control flow.
	CodeIrreducibleLoop = "PTXA007"
	// CodeMalformed: the kernel is structurally broken (e.g. a branch to
	// an unresolved label) and could not be analysed at all.
	CodeMalformed = "PTXA008"

	// The PTXA009-PTXA014 codes are derived from the abstract
	// interpreter (internal/ptxanalysis/absint). They are never
	// error-severity: the DCA gate and the default pipeline outputs are
	// unaffected by their presence.

	// CodeConstBranch: a branch guard the value analysis proves constant.
	CodeConstBranch = "PTXA009"
	// CodeUncoalescedAccess: a global access with a proven per-thread
	// stride of a full memory sector or more.
	CodeUncoalescedAccess = "PTXA010"
	// CodeDivergentBarrier: a barrier control-dependent on a proven
	// thread-dependent branch condition.
	CodeDivergentBarrier = "PTXA011"
	// CodeLoopInvariantLoad: a load whose address never changes inside
	// its loop (hoistable).
	CodeLoopInvariantLoad = "PTXA012"
	// CodeUnreachableByValue: a structurally reachable block no
	// parameter or thread assignment can reach (constant guards).
	CodeUnreachableByValue = "PTXA013"
	// CodeBankConflict: a shared-memory access with a provably
	// conflicting bank stride.
	CodeBankConflict = "PTXA014"
)

// Diag is one lint diagnostic anchored to an instruction.
type Diag struct {
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Kernel names the containing kernel.
	Kernel string `json:"kernel"`
	// Line is the instruction index within the kernel body (-1 when the
	// finding has no single anchor instruction).
	Line int `json:"line"`
	// Code is the stable machine-readable diagnostic code (PTXAnnn).
	Code string `json:"code"`
	// Msg is the human-readable description.
	Msg string `json:"msg"`
}

// String renders the diagnostic in a compiler-style single line.
func (d Diag) String() string {
	return fmt.Sprintf("%s:%d: %s %s: %s", d.Kernel, d.Line, d.Severity, d.Code, d.Msg)
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diag) bool {
	for _, d := range diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Errors filters the error-severity diagnostics.
func Errors(diags []Diag) []Diag {
	var out []Diag
	for _, d := range diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// useBeforeDef derives the gate's error diagnostics: PTXA001, one per
// register that may be read before any definition, ordered by line and
// then by register name.
func (p *kernelPasses) useBeforeDef() []Diag {
	if len(p.live.UseBeforeDef) == 0 {
		return nil
	}
	regs := make([]string, 0, len(p.live.UseBeforeDef))
	for r := range p.live.UseBeforeDef {
		regs = append(regs, r)
	}
	sort.Strings(regs)
	diags := make([]Diag, 0, len(regs))
	for _, r := range regs {
		diags = append(diags, Diag{
			Severity: SevError, Kernel: p.name, Line: p.live.UseBeforeDef[r], Code: CodeUseBeforeDef,
			Msg: fmt.Sprintf("register %s may be read before it is written", r),
		})
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Line < diags[j].Line })
	return diags
}

// lint derives the diagnostics of one analysed kernel from the gate's
// error diagnostics errs and the full level's passes.
func (p *kernelPasses) lint(errs []Diag) []Diag {
	k := p.d.Kernel
	diags := append([]Diag(nil), errs...)
	add := func(sev Severity, line int, code, format string, args ...any) {
		diags = append(diags, Diag{
			Severity: sev, Kernel: p.name, Line: line, Code: code,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	// PTXA002 dead stores.
	for _, i := range p.live.DeadDefs {
		add(SevWarning, i, CodeDeadStore,
			"value of %s defined by %q is never used", p.d.Regs[p.d.Insts[i].Dest], k.Body[i].Opcode)
	}

	// PTXA003 unreachable blocks.
	reach := p.g.Reachable()
	for bi, ok := range reach {
		if !ok {
			add(SevWarning, p.g.Blocks[bi].Start, CodeUnreachable,
				"basic block %d (instructions %d-%d) is unreachable from the kernel entry",
				bi, p.g.Blocks[bi].Start, p.g.Blocks[bi].End-1)
		}
	}

	// PTXA004 branches into loop bodies bypassing the header. A natural
	// loop is only enterable through its header by construction, so the
	// check works on the lexical back-edge interval [header..tail]: an
	// edge from outside the interval to a block inside it other than the
	// header side-steps the loop entry.
	intervals := make(map[int]int) // header -> furthest tail
	for _, e := range p.g.BackEdges() {
		if e[0] > intervals[e[1]] {
			intervals[e[1]] = e[0]
		}
	}
	headers := make([]int, 0, len(intervals))
	for h := range intervals {
		headers = append(headers, h)
	}
	sort.Ints(headers)
	for _, head := range headers {
		tail := intervals[head]
		for bi, b := range p.g.Blocks {
			if bi >= head && bi <= tail {
				continue
			}
			for _, s := range b.Succs {
				if s > head && s <= tail {
					add(SevWarning, b.End-1, CodeBranchIntoLoop,
						"branch from block %d enters the body of the loop spanning blocks %d-%d without passing its header",
						bi, head, tail)
				}
			}
		}
	}

	// PTXA005 barriers in potentially divergent regions: a bar.sync that
	// does not post-dominate the entry block is skipped by some threads
	// on some path — a hang hazard under intra-block divergence.
	for i := range p.d.Insts {
		if !p.d.Insts[i].Op.Barrier {
			continue
		}
		b := p.g.BlockOf(i)
		if !p.postDom.Dominates(b, 0) || p.d.Insts[i].Guard >= 0 {
			add(SevWarning, i, CodeBarrierDivergent,
				"%s at a point not all threads of the block must reach (divergence hazard)", k.Body[i].Opcode)
		}
	}

	// PTXA009-PTXA014: the abstract-interpretation findings.
	p.lintAbsint(add)

	// PTXA007 irreducible back edges (no natural loop).
	for _, e := range p.g.BackEdges() {
		if !p.dom.Dominates(e[1], e[0]) {
			add(SevWarning, p.g.Blocks[e[0]].End-1, CodeIrreducibleLoop,
				"back edge from block %d to block %d whose target does not dominate its source (irreducible loop)",
				e[0], e[1])
		}
	}

	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Severity != diags[j].Severity {
			return diags[i].Severity > diags[j].Severity
		}
		return diags[i].Line < diags[j].Line
	})
	return diags
}

// LintKernel runs the full static analysis of one kernel and returns its
// diagnostics. Kernels whose CFG cannot be built (unresolved branch
// targets) report the failure as an error-severity diagnostic.
func LintKernel(k *ptx.Kernel) []Diag {
	return lintKernelCached(context.Background(), k, nil)
}

// lintKernelCached is LintKernel reading the analysis through c.
func lintKernelCached(ctx context.Context, k *ptx.Kernel, c *analysiscache.Cache) []Diag {
	a, _, err := AnalyzeKernelCached(ctx, k, c)
	if err != nil {
		return Malformed(k, err)
	}
	return a.Diags
}

// Malformed reports a kernel whose analysis failed (a structurally
// broken body) as its single error-severity diagnostic.
func Malformed(k *ptx.Kernel, err error) []Diag {
	return []Diag{{Severity: SevError, Kernel: k.Name, Line: -1, Code: CodeMalformed, Msg: err.Error()}}
}

// Lint analyses every kernel of a module and returns the diagnostics
// in the stable reporting order: sorted by (kernel, line, code). The
// per-kernel Diags fields keep their severity-first order; this module
// view is the deterministic contract CLI and serving output rely on.
func Lint(m *ptx.Module) []Diag {
	return LintCached(context.Background(), m, nil)
}

// LintCached is Lint reading each kernel's analysis through the
// content-addressed cache c (nil: no memo), so a kernel the pipeline
// has already analysed is not analysed again. The diagnostics are
// identical to Lint's.
func LintCached(ctx context.Context, m *ptx.Module, c *analysiscache.Cache) []Diag {
	var out []Diag
	for _, k := range m.Kernels {
		out = append(out, lintKernelCached(ctx, k, c)...)
	}
	SortDiags(out)
	return out
}

// SortDiags orders diagnostics by (kernel, line, code) — the stable
// reporting contract of `cnnperf lint` and /v1/lint.
func SortDiags(diags []Diag) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Code < b.Code
	})
}

// LintErrors returns the error-severity diagnostics of a kernel: the
// findings that make the dynamic code analysis reject it. It runs the
// gate level only.
func LintErrors(k *ptx.Kernel) []Diag {
	g, err := AnalyzeKernelGate(k)
	if err != nil {
		return Malformed(k, err)
	}
	return g.Errors
}
