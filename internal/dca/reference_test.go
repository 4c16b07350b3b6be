package dca

import (
	"fmt"
	"strconv"
	"strings"

	"cnnperf/internal/ptx"
)

// regOperand extracts the register name from an operand, handling memory
// references "[%rd1+4]" and plain registers "%r3". Immediates, labels,
// parameter names and special read-only registers return "".
func regOperand(op string) string { return ptx.RegOperand(op) }

// refBuildDepGraph is the string-walking dependency graph, the oracle
// that buildDepGraph over the decoded kernel must reproduce: registers
// are named by their operand text, interned once per defined name.
func refBuildDepGraph(k *ptx.Kernel) *DepGraph {
	n := len(k.Body)
	// The definitions of register id form a list in body order, from
	// head[id] along next; tail[id] is its last.
	ids := make(map[string]int32, n)
	head, tail := make([]int32, 0, n), make([]int32, 0, n)
	next := make([]int32, n)
	for i := range k.Body {
		next[i] = -1
		d := k.Body[i].Dest()
		if d == "" {
			continue
		}
		if id, ok := ids[d]; ok {
			next[tail[id]] = int32(i)
			tail[id] = int32(i)
		} else {
			ids[d] = int32(len(head))
			head = append(head, int32(i))
			tail = append(tail, int32(i))
		}
	}
	g := &DepGraph{off: make([]int32, n+1)}
	seen := make([]int, n)
	for i := range k.Body {
		in := &k.Body[i]
		srcs := in.Sources()
		for s := 0; s <= len(srcs); s++ {
			reg := in.Pred // after the sources
			if s < len(srcs) {
				reg = regOperand(srcs[s])
			}
			id, ok := ids[reg]
			if !ok {
				continue
			}
			for d := head[id]; d >= 0; d = next[d] {
				if int(d) != i && seen[d] != i+1 {
					seen[d] = i + 1
					g.deps = append(g.deps, d)
				}
			}
		}
		g.off[i+1] = int32(len(g.deps))
	}
	return g
}

// refBuildControlSlice is the string-walking control slice, the oracle
// for buildControlSlice: the branches and exits of the body, closed
// backwards over g.
func refBuildControlSlice(k *ptx.Kernel, g *DepGraph) *ControlSlice {
	s := &ControlSlice{InSlice: make([]bool, len(k.Body))}
	var stack []int
	mark := func(i int) {
		if !s.InSlice[i] {
			s.InSlice[i] = true
			s.Size++
			stack = append(stack, i)
		}
	}
	for i, in := range k.Body {
		if ptx.IsBranch(in.Opcode) || ptx.IsExit(in.Opcode) {
			mark(i)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range g.Deps(i) {
			mark(int(d))
		}
	}
	return s
}

// ExecuteThread runs one thread through the kernel, evaluating only the
// control slice (or everything under opts.Full) and counting every
// instruction the thread would execute. It is the tree-walking
// reference interpreter: the differential tests and
// FuzzEngineDifferential hold the compiled engine
// (CompiledKernel.Execute) to its counts and error text exactly.
func ExecuteThread(k *ptx.Kernel, slice *ControlSlice, params map[string]int64, ctx ThreadCtx, opts ExecOptions) (res ExecResult, err error) {
	maxSteps := opts.effectiveMaxSteps()
	env := make(map[string]int64, 32)
	n := len(k.Body)
	// Decode every opcode once up front: the loop below revisits the
	// same pc once per loop iteration, and string-splitting the opcode
	// each time dominated the interpreter profile.
	dec := make([]ptx.OpInfo, n)
	for i := range k.Body {
		dec[i] = ptx.Decode(k.Body[i].Opcode)
	}
	pc := 0
	for pc < n {
		if res.Steps >= maxSteps {
			return res, fmt.Errorf("dca: kernel %q exceeded %d steps (infinite loop?)", k.Name, maxSteps)
		}
		in := &k.Body[pc]
		info := &dec[pc]
		res.Steps++
		res.PerClass[info.Class]++
		interpret := opts.Full || slice.InSlice[pc]
		if !interpret {
			pc++
			continue
		}
		res.Interpreted++

		// Guard predicate.
		taken := true
		if in.Pred != "" {
			v, ok := env[in.Pred]
			if !ok {
				return res, fmt.Errorf("dca: kernel %q pc %d: predicate %s undefined", k.Name, pc, in.Pred)
			}
			taken = v != 0
			if in.PredNeg {
				taken = !taken
			}
		}
		if info.Branch {
			if taken {
				tgt, err := k.Target(in.Operands[0])
				if err != nil {
					return res, fmt.Errorf("dca: %w", err)
				}
				if tgt <= pc {
					res.BackBranches++
				}
				pc = tgt
			} else {
				pc++
			}
			continue
		}
		if info.Exit {
			return res, nil
		}
		if taken {
			if err := stepDecoded(k, *in, pc, info, env, params, ctx, opts); err != nil {
				return res, err
			}
		}
		pc++
	}
	return res, nil
}

// step evaluates one non-branch instruction into env. It decodes the
// opcode on every call; hot loops pre-decode and call stepDecoded.
func step(k *ptx.Kernel, in ptx.Instruction, pc int, env map[string]int64, params map[string]int64, ctx ThreadCtx, opts ExecOptions) error {
	info := ptx.Decode(in.Opcode)
	return stepDecoded(k, in, pc, &info, env, params, ctx, opts)
}

// stepDecoded evaluates one non-branch instruction into env using the
// pre-decoded opcode info.
func stepDecoded(k *ptx.Kernel, in ptx.Instruction, pc int, info *ptx.OpInfo, env map[string]int64, params map[string]int64, ctx ThreadCtx, opts ExecOptions) error {
	val := func(op string) (int64, error) { return operandValue(op, env, ctx) }
	dst := in.Dest()
	src := in.Sources()
	need := func(want int) error {
		if len(src) < want {
			return fmt.Errorf("dca: kernel %q pc %d: %s needs %d sources, has %d", k.Name, pc, in.Opcode, want, len(src))
		}
		return nil
	}
	root := info.Root
	switch root {
	case "mov", "cvt", "cvta", "abs", "neg", "not":
		if err := need(1); err != nil {
			return err
		}
		v, err := val(src[0])
		if err != nil {
			return err
		}
		switch root {
		case "neg":
			v = -v
		case "not":
			v = ^v
		case "abs":
			if v < 0 {
				v = -v
			}
		}
		env[dst] = v
	case "ld":
		if err := need(1); err != nil {
			return err
		}
		if strings.Contains(in.Opcode, "param") {
			name := strings.Trim(src[0], "[]")
			v, ok := params[name]
			if !ok {
				return fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", k.Name, pc, name)
			}
			env[dst] = v
			return nil
		}
		// Global/shared loads carry data, never control, in the
		// generated subset; they appear here only in Full mode.
		if !opts.Full {
			return fmt.Errorf("dca: kernel %q pc %d: data load %q inside control slice", k.Name, pc, in.Opcode)
		}
		env[dst] = 0
	case "st":
		// Stores have no register effects.
	case "add", "sub", "mul", "div", "rem", "min", "max", "and", "or", "xor", "shl", "shr":
		if err := need(2); err != nil {
			return err
		}
		a, err := val(src[0])
		if err != nil {
			return err
		}
		b, err := val(src[1])
		if err != nil {
			return err
		}
		v, err := intBinop(root, a, b)
		if err != nil {
			return fmt.Errorf("dca: kernel %q pc %d: %w", k.Name, pc, err)
		}
		env[dst] = v
	case "mad", "fma":
		if err := need(3); err != nil {
			return err
		}
		a, err := val(src[0])
		if err != nil {
			return err
		}
		b, err := val(src[1])
		if err != nil {
			return err
		}
		c, err := val(src[2])
		if err != nil {
			return err
		}
		env[dst] = a*b + c
	case "setp":
		if err := need(2); err != nil {
			return err
		}
		a, err := val(src[0])
		if err != nil {
			return err
		}
		b, err := val(src[1])
		if err != nil {
			return err
		}
		r, err := compare(info.Cmp, a, b)
		if err != nil {
			return fmt.Errorf("dca: kernel %q pc %d: %w", k.Name, pc, err)
		}
		env[dst] = r
	case "selp":
		if err := need(3); err != nil {
			return err
		}
		a, err := val(src[0])
		if err != nil {
			return err
		}
		b, err := val(src[1])
		if err != nil {
			return err
		}
		p, err := val(src[2])
		if err != nil {
			return err
		}
		if p != 0 {
			env[dst] = a
		} else {
			env[dst] = b
		}
	case "rcp", "sqrt", "rsqrt", "ex2", "lg2", "sin", "cos":
		// SFU float ops: value-irrelevant for control in our subset.
		env[dst] = 0
	case "bar", "membar":
		// Barriers: no register effects.
	default:
		return fmt.Errorf("dca: kernel %q pc %d: cannot interpret opcode %q", k.Name, pc, in.Opcode)
	}
	return nil
}

func compare(cmp string, a, b int64) (int64, error) {
	var r bool
	switch cmp {
	case "lt":
		r = a < b
	case "le":
		r = a <= b
	case "gt":
		r = a > b
	case "ge":
		r = a >= b
	case "eq":
		r = a == b
	case "ne":
		r = a != b
	default:
		return 0, fmt.Errorf("unknown comparison %q", cmp)
	}
	if r {
		return 1, nil
	}
	return 0, nil
}

func intBinop(root string, a, b int64) (int64, error) {
	switch root {
	case "add":
		return a + b, nil
	case "sub":
		return a - b, nil
	case "mul":
		return a * b, nil
	case "div":
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case "rem":
		if b == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		return a % b, nil
	case "min":
		if a < b {
			return a, nil
		}
		return b, nil
	case "max":
		if a > b {
			return a, nil
		}
		return b, nil
	case "and":
		return a & b, nil
	case "or":
		return a | b, nil
	case "xor":
		return a ^ b, nil
	case "shl":
		return a << uint(b&63), nil
	case "shr":
		return int64(uint64(a) >> uint(b&63)), nil
	}
	return 0, fmt.Errorf("unknown binop %q", root)
}

// operandValue resolves an operand to an integer: registers from env,
// special registers from the thread context, decimal immediates, and PTX
// hex-float immediates (bit pattern).
func operandValue(op string, env map[string]int64, ctx ThreadCtx) (int64, error) {
	switch op {
	case "%tid.x":
		return ctx.Tid, nil
	case "%ntid.x":
		return ctx.NTid, nil
	case "%ctaid.x":
		return ctx.CtaID, nil
	case "%nctaid.x":
		return ctx.NCtaID, nil
	}
	if strings.HasPrefix(op, "%") {
		v, ok := env[op]
		if !ok {
			return 0, fmt.Errorf("dca: register %s read before write", op)
		}
		return v, nil
	}
	if strings.HasPrefix(op, "0f") || strings.HasPrefix(op, "0F") {
		bits, err := strconv.ParseUint(op[2:], 16, 64)
		if err != nil {
			return 0, fmt.Errorf("dca: bad float immediate %q", op)
		}
		return int64(bits), nil
	}
	v, err := strconv.ParseInt(op, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("dca: cannot evaluate operand %q", op)
	}
	return v, nil
}
