package ptx

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Instruction is one PTX instruction: an optional guard predicate, a full
// opcode and its operand list. For opcodes with a destination (HasDest),
// Operands[0] is the destination.
type Instruction struct {
	// Pred is the guard predicate register ("%p1") or empty.
	Pred string
	// PredNeg negates the guard ("@!%p1").
	PredNeg bool
	// Opcode is the full dotted opcode, e.g. "setp.lt.u32".
	Opcode string
	// Operands are the operand strings: registers ("%r1"), immediates
	// ("42", "0f3F800000"), special registers ("%tid.x"), memory
	// references ("[%rd1+4]"), parameter names or labels.
	Operands []string
}

// Dest returns the destination register, or "" when the opcode has none.
func (in Instruction) Dest() string {
	if HasDest(in.Opcode) && len(in.Operands) > 0 {
		return in.Operands[0]
	}
	return ""
}

// Sources returns the source operands (everything that is not the
// destination). Stores and branches source all operands.
func (in Instruction) Sources() []string {
	if HasDest(in.Opcode) {
		if len(in.Operands) <= 1 {
			return nil
		}
		return in.Operands[1:]
	}
	return in.Operands
}

// Class returns the execution class of the instruction.
func (in Instruction) Class() Class { return ClassOf(in.Opcode) }

// String renders the instruction in PTX syntax.
func (in Instruction) String() string {
	var buf [64]byte // holds a typical line without growing
	return string(in.AppendTo(buf[:0]))
}

// AppendTo appends the instruction in PTX syntax, as String renders it,
// to dst and returns the extended buffer.
func (in Instruction) AppendTo(dst []byte) []byte {
	if in.Pred != "" {
		dst = append(dst, '@')
		if in.PredNeg {
			dst = append(dst, '!')
		}
		dst = append(dst, in.Pred...)
		dst = append(dst, ' ')
	}
	dst = append(dst, in.Opcode...)
	for i, op := range in.Operands {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		dst = append(dst, op...)
	}
	return append(dst, ';')
}

// Param is a kernel parameter declaration.
type Param struct {
	// Name is the parameter identifier.
	Name string
	// Type is the PTX type, e.g. ".u64".
	Type string
}

// RegDecl declares a bank of virtual registers, e.g. ".reg .f32 %f<40>;".
type RegDecl struct {
	// Type is the register type (".f32", ".pred", ...).
	Type string
	// Prefix is the register name prefix ("%f").
	Prefix string
	// Count is the declared bank size.
	Count int
}

// Kernel is one .entry function: parameters, register declarations and a
// flat instruction body with labels resolved to indices.
type Kernel struct {
	// Name is the kernel entry name.
	Name string
	// Params are the kernel parameters in declaration order.
	Params []Param
	// Regs are the register bank declarations.
	Regs []RegDecl
	// Body is the instruction sequence.
	Body []Instruction
	// Labels maps label names to the Body index they precede.
	Labels map[string]int
}

// AddLabel attaches a label to the next appended instruction index.
func (k *Kernel) AddLabel(name string) error {
	if k.Labels == nil {
		k.Labels = make(map[string]int)
	}
	if _, dup := k.Labels[name]; dup {
		return fmt.Errorf("ptx: duplicate label %q in kernel %q", name, k.Name)
	}
	k.Labels[name] = len(k.Body)
	return nil
}

// Append adds an instruction to the body.
func (k *Kernel) Append(in Instruction) { k.Body = append(k.Body, in) }

// LabelsAt returns the labels attached to a body index, sorted.
func (k *Kernel) LabelsAt(idx int) []string {
	var out []string
	for name, at := range k.Labels {
		if at == idx {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// Label is one entry of a kernel's label table.
type Label struct {
	// Name is the label.
	Name string
	// Index is the Body index the label precedes.
	Index int
}

// AppendLabels appends the label table to dst ordered by index, then
// name: the order in which a printer walking the body meets the labels.
func (k *Kernel) AppendLabels(dst []Label) []Label {
	n := len(dst)
	for name, at := range k.Labels {
		dst = append(dst, Label{Name: name, Index: at})
	}
	slices.SortFunc(dst[n:], func(a, b Label) int {
		if a.Index != b.Index {
			return cmp.Compare(a.Index, b.Index)
		}
		return strings.Compare(a.Name, b.Name)
	})
	return dst
}

// Target resolves a branch target label to a body index.
func (k *Kernel) Target(label string) (int, error) {
	idx, ok := k.Labels[label]
	if !ok {
		return 0, fmt.Errorf("ptx: undefined label %q in kernel %q", label, k.Name)
	}
	return idx, nil
}

// StaticHistogram counts the static instructions per class.
func (k *Kernel) StaticHistogram() map[Class]int64 {
	h := make(map[Class]int64)
	for _, in := range k.Body {
		h[in.Class()]++
	}
	return h
}

// Validate checks label targets, label table consistency and operand
// arity of the body.
func (k *Kernel) Validate() error { return k.validate(nil) }

// validate is Validate for a kernel of module m (nil: standalone). In
// a module, a branch resolving only against a label of a sibling kernel
// is rejected with a dedicated error, which takes precedence over every
// other finding; PTX labels are function-scoped, so such a branch can
// never be assembled. One pass over the body decodes each opcode once
// and keeps the first finding of each kind, and the findings are
// reported in the order of the checks: the sibling branch, the name,
// the label table, then the body.
func (k *Kernel) validate(m *Module) error {
	var sibling, body error
	for i, in := range k.Body {
		if body != nil && (m == nil || sibling != nil) {
			break
		}
		info := Decode(in.Opcode)
		if m != nil && sibling == nil && info.Branch && len(in.Operands) == 1 {
			sibling = m.siblingLabel(k, i, in.Operands[0])
		}
		if body != nil {
			continue
		}
		switch {
		case in.Opcode == "":
			body = fmt.Errorf("ptx: kernel %q: empty opcode at %d", k.Name, i)
		case info.Class == ClassUnknown:
			body = fmt.Errorf("ptx: kernel %q: unknown opcode %q at %d", k.Name, in.Opcode, i)
		case info.Branch && len(in.Operands) != 1:
			body = fmt.Errorf("ptx: kernel %q: %s needs 1 operand at %d", k.Name, in.Opcode, i)
		case info.Branch:
			_, body = k.Target(in.Operands[0])
		}
	}
	if sibling != nil {
		return sibling
	}
	if k.Name == "" {
		return fmt.Errorf("ptx: kernel without name")
	}
	// Labels must point into the body ([0, len] — len marks a trailing
	// label).
	for name, idx := range k.Labels {
		if idx < 0 || idx > len(k.Body) {
			return fmt.Errorf("ptx: kernel %q: label %q points at %d, outside the body [0,%d]",
				k.Name, name, idx, len(k.Body))
		}
	}
	return body
}

// Module is a translation unit: header directives plus kernels.
type Module struct {
	// Version is the PTX ISA version, e.g. "6.0".
	Version string
	// Target is the SM target, e.g. "sm_61".
	Target string
	// AddressSize is 32 or 64.
	AddressSize int
	// Kernels are the entry functions in declaration order.
	Kernels []*Kernel
}

// Kernel returns the kernel with the given name, or nil.
func (m *Module) Kernel(name string) *Kernel {
	for _, k := range m.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Validate checks the module header and all kernels. Branches resolving
// only against a label of a sibling kernel are rejected with a dedicated
// error: PTX labels are function-scoped, so such a branch can never be
// assembled.
func (m *Module) Validate() error {
	if m.AddressSize != 32 && m.AddressSize != 64 {
		return fmt.Errorf("ptx: address size %d", m.AddressSize)
	}
	seen := make(map[string]bool)
	for _, k := range m.Kernels {
		if seen[k.Name] {
			return fmt.Errorf("ptx: duplicate kernel %q", k.Name)
		}
		seen[k.Name] = true
		if err := k.validate(m); err != nil {
			return err
		}
	}
	return nil
}

// siblingLabel reports the branch at index i of k to label when label
// is not k's own but a label of another kernel of m.
func (m *Module) siblingLabel(k *Kernel, i int, label string) error {
	if _, ok := k.Labels[label]; ok {
		return nil
	}
	for _, other := range m.Kernels {
		if other == k {
			continue
		}
		if _, ok := other.Labels[label]; ok {
			return fmt.Errorf("ptx: kernel %q: branch at %d targets label %q of kernel %q (labels are function-scoped)",
				k.Name, i, label, other.Name)
		}
	}
	return nil
}

// StaticInstructions returns the total static instruction count.
func (m *Module) StaticInstructions() int64 {
	var n int64
	for _, k := range m.Kernels {
		n += int64(len(k.Body))
	}
	return n
}
