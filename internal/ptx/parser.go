package ptx

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads PTX assembly text (the subset this package prints plus the
// nvcc conventions of the paper's Fig. 2: comments, directives, labels,
// predicated instructions) into a Module.
func Parse(src string) (*Module, error) {
	p := &parser{src: src}
	return p.parseModule()
}

// parser walks the normalised lines of src (see nextLine) one at a
// time, without materialising them.
type parser struct {
	src string
	// off is the offset in src of the first line not yet consumed, pos
	// the number of normalised lines consumed: error messages number
	// normalised lines, from 1.
	off, pos int
	// peeked holds the next line (line, ending at src offset end) once
	// peek has found it; ok is false at the end of src.
	peeked, ok bool
	line       string
	end        int
	// ops is the current kernel's operand backing array: each
	// instruction's Operands is a capacity-limited sub-slice of it, so
	// appending to one instruction's operands never overwrites the next.
	ops []string
	// buf joins a parameter list that spans lines.
	buf []byte
}

// nextLine returns the first normalised line of src at or after offset
// off, and the offset after it: lines are stripped of // comments and
// surrounding space, and blank ones are skipped. ok is false when none
// is left.
func nextLine(src string, off int) (line string, end int, ok bool) {
	for off < len(src) {
		l := src[off:]
		if i := strings.IndexByte(l, '\n'); i >= 0 {
			l, off = l[:i], off+i+1
		} else {
			off = len(src)
		}
		if i := strings.Index(l, "//"); i >= 0 {
			l = l[:i]
		}
		if l = strings.TrimSpace(l); l != "" {
			return l, off, true
		}
	}
	return "", off, false
}

func (p *parser) peek() (string, bool) {
	if !p.peeked {
		p.line, p.end, p.ok = nextLine(p.src, p.off)
		p.peeked = true
	}
	return p.line, p.ok
}

func (p *parser) next() (string, bool) {
	l, ok := p.peek()
	if ok {
		p.off, p.pos, p.peeked = p.end, p.pos+1, false
	}
	return l, ok
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ptx: line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

func (p *parser) parseModule() (*Module, error) {
	m := &Module{}
	for {
		line, ok := p.peek()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(line, ".version"):
			m.Version = strings.TrimSpace(strings.TrimPrefix(line, ".version"))
			p.next()
		case strings.HasPrefix(line, ".target"):
			m.Target = strings.TrimSpace(strings.TrimPrefix(line, ".target"))
			p.next()
		case strings.HasPrefix(line, ".address_size"):
			v := strings.TrimSpace(strings.TrimPrefix(line, ".address_size"))
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, p.errf("bad address size %q", v)
			}
			m.AddressSize = n
			p.next()
		case strings.Contains(line, ".entry"):
			k, err := p.parseKernel()
			if err != nil {
				return nil, err
			}
			m.Kernels = append(m.Kernels, k)
		default:
			return nil, p.errf("unexpected line %q", line)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// parseKernel consumes ".visible .entry name(" through the closing "}".
func (p *parser) parseKernel() (*Kernel, error) {
	line, _ := p.next()
	idx := strings.Index(line, ".entry")
	rest := strings.TrimSpace(line[idx+len(".entry"):])
	name := rest
	inlineParams := ""
	if i := strings.IndexByte(rest, '('); i >= 0 {
		name = strings.TrimSpace(rest[:i])
		inlineParams = strings.TrimSpace(rest[i+1:])
	}
	if name == "" {
		return nil, p.errf("kernel entry without a name")
	}
	k := &Kernel{Name: name}

	// Parameters: either inline up to ')' or on following lines, joined
	// by single spaces.
	paramText := inlineParams
	if !strings.Contains(paramText, ")") {
		p.buf = append(p.buf[:0], paramText...)
		for {
			l, ok := p.next()
			if !ok {
				return nil, p.errf("unterminated parameter list for %q", name)
			}
			p.buf = append(append(p.buf, ' '), l...)
			if strings.Contains(l, ")") {
				break
			}
		}
		paramText = string(p.buf)
	}
	closing := strings.Index(paramText, ")")
	body := strings.TrimSpace(paramText[closing+1:])
	paramText = paramText[:closing]
	for more := true; more; {
		var decl string
		decl, paramText, more = strings.Cut(paramText, ",")
		if decl = strings.TrimSpace(decl); decl == "" {
			continue
		}
		// ".param .u64 name"
		var f [3]string
		if fields(decl, f[:]) != 3 || f[0] != ".param" {
			return nil, p.errf("bad parameter %q", decl)
		}
		if k.Params == nil {
			k.Params = make([]Param, 0, strings.Count(paramText, ",")+1)
		}
		k.Params = append(k.Params, Param{Type: f[1], Name: f[2]})
	}

	// Opening brace may trail the parameter list or sit on its own line.
	if body == "" {
		l, ok := p.next()
		if !ok || !strings.HasPrefix(l, "{") {
			return nil, p.errf("expected '{' for kernel %q", name)
		}
		body = strings.TrimSpace(strings.TrimPrefix(l, "{"))
	} else {
		if !strings.HasPrefix(body, "{") {
			return nil, p.errf("expected '{' after parameters of %q", name)
		}
		body = strings.TrimSpace(strings.TrimPrefix(body, "{"))
	}
	insts, ops, regs := p.bodyBounds(body)
	k.Body = make([]Instruction, 0, insts)
	if regs > 0 {
		k.Regs = make([]RegDecl, 0, regs)
	}
	p.ops = make([]string, 0, ops)
	if body != "" {
		// Rare: instruction on the brace line.
		if err := p.parseBodyLine(k, body); err != nil {
			return nil, err
		}
	}

	for {
		l, ok := p.next()
		if !ok {
			return nil, p.errf("unterminated kernel %q", name)
		}
		if l == "}" {
			break
		}
		if strings.HasSuffix(l, "}") {
			l = strings.TrimSpace(strings.TrimSuffix(l, "}"))
			if l != "" {
				if err := p.parseBodyLine(k, l); err != nil {
					return nil, err
				}
			}
			break
		}
		if err := p.parseBodyLine(k, l); err != nil {
			return nil, err
		}
	}
	if len(k.Body) == 0 {
		k.Body = nil // as a kernel assembled without instructions
	}
	return k, nil
}

// bodyBounds bounds the instruction and operand counts of the kernel
// body made of first (the text after the opening brace) and the lines
// up to the closing brace, and counts its .reg lines: an instruction
// ends with a ';', and has at most one operand more than it has
// commas. The lines parseBodyLine takes as directives hold none.
func (p *parser) bodyBounds(first string) (insts, ops, regs int) {
	count := func(l string) {
		switch {
		case strings.HasPrefix(l, ".reg"):
			regs++
		case strings.HasPrefix(l, ".reqntid"), strings.HasPrefix(l, ".maxntid"):
		default:
			insts += strings.Count(l, ";")
			ops += strings.Count(l, ",")
		}
	}
	count(first)
	for l, off, ok := nextLine(p.src, p.off); ok; l, off, ok = nextLine(p.src, off) {
		count(l)
		if strings.HasSuffix(l, "}") {
			break
		}
	}
	return insts, insts + ops, regs
}

// parseBodyLine handles one body line: a .reg declaration, a label, or
// one or more ';'-separated instructions.
func (p *parser) parseBodyLine(k *Kernel, line string) error {
	if strings.HasPrefix(line, ".reg") {
		return p.parseRegDecl(k, line)
	}
	if strings.HasPrefix(line, ".reqntid") || strings.HasPrefix(line, ".maxntid") {
		return nil // performance directives: ignored
	}
	for {
		line = strings.TrimSpace(line)
		if line == "" {
			return nil
		}
		// Labels: "NAME:" possibly followed by an instruction.
		if i := strings.IndexByte(line, ':'); i >= 0 && isLabelName(line[:i]) {
			if err := k.AddLabel(line[:i]); err != nil {
				return err
			}
			line = line[i+1:]
			continue
		}
		semi := strings.IndexByte(line, ';')
		if semi < 0 {
			return p.errf("instruction without ';': %q", line)
		}
		stmt := strings.TrimSpace(line[:semi])
		line = line[semi+1:]
		if stmt == "" {
			continue
		}
		in, err := p.parseInstruction(stmt)
		if err != nil {
			return p.errf("%v", err)
		}
		k.Append(in)
	}
}

func isLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r == '$':
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (p *parser) parseRegDecl(k *Kernel, line string) error {
	// ".reg .f32 %f<40>;"
	line = strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, ".reg")), ";")
	var f [2]string
	if fields(line, f[:]) != 2 {
		return p.errf("bad .reg declaration %q", line)
	}
	spec := f[1]
	lt := strings.IndexByte(spec, '<')
	gt := strings.IndexByte(spec, '>')
	if lt < 0 || gt < lt {
		return p.errf("bad register bank %q", spec)
	}
	count, err := strconv.Atoi(spec[lt+1 : gt])
	if err != nil {
		return p.errf("bad register count in %q", spec)
	}
	k.Regs = append(k.Regs, RegDecl{Type: f[0], Prefix: spec[:lt], Count: count})
	return nil
}

// fields stores the first len(dst) fields of s, as strings.Fields
// splits it, in dst and returns how many fields s has.
func fields(s string, dst []string) int {
	n := 0
	for {
		i := strings.IndexFunc(s, isNotSpace)
		if i < 0 {
			return n
		}
		s = s[i:]
		j := strings.IndexFunc(s, unicode.IsSpace)
		if j < 0 {
			j = len(s)
		}
		if n < len(dst) {
			dst[n] = s[:j]
		}
		n++
		s = s[j:]
	}
}

func isNotSpace(r rune) bool { return !unicode.IsSpace(r) }

// parseInstruction parses "@!%p1 opcode a, b, c" (no trailing ';'),
// carving the operands out of the kernel's backing array.
func (p *parser) parseInstruction(stmt string) (Instruction, error) {
	var in Instruction
	if strings.HasPrefix(stmt, "@") {
		sp := strings.IndexAny(stmt, " \t")
		if sp < 0 {
			return in, fmt.Errorf("predicated instruction without opcode: %q", stmt)
		}
		pred := stmt[1:sp]
		if strings.HasPrefix(pred, "!") {
			in.PredNeg = true
			pred = pred[1:]
		}
		in.Pred = pred
		stmt = strings.TrimSpace(stmt[sp:])
	}
	sp := strings.IndexAny(stmt, " \t")
	if sp < 0 {
		in.Opcode = stmt
		return in, nil
	}
	in.Opcode = stmt[:sp]
	rest := stmt[sp+1:]
	start := len(p.ops)
	for more := true; more; {
		var o string
		o, rest, more = strings.Cut(rest, ",")
		if o = strings.TrimSpace(o); o != "" {
			p.ops = append(p.ops, o)
		}
	}
	if end := len(p.ops); end > start {
		in.Operands = p.ops[start:end:end]
	}
	return in, nil
}
