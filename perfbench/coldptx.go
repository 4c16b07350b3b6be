package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"cnnperf"
	"cnnperf/internal/cnn"
	"cnnperf/internal/zoo"
)

// coldBaseModel is the zoo model whose PTX the cold-ptx generator
// rewrites: about 19 KB and 19 kernels at batch 16.
const coldBaseModel = "alexnet"

// coldBase returns the base PTX module and the trainable-parameter
// count sent with every cold-ptx request.
func coldBase() (string, int64, error) {
	src, err := cnnperf.GeneratePTX(coldBaseModel, cnnperf.DefaultConfig())
	if err != nil {
		return "", 0, err
	}
	m, err := zoo.Build(coldBaseModel)
	if err != nil {
		return "", 0, err
	}
	sum, err := cnn.Analyze(m)
	if err != nil {
		return "", 0, err
	}
	return src, sum.TrainableParams, nil
}

// siteRE matches the immediate operand of a thread bounds check
// (setp.ge) or a loop bound (setp.lt) in the generated PTX.
var siteRE = regexp.MustCompile(`setp\.(ge|lt)\.s32 %p\d+, %r\d+, (\d+);`)

// coldSite is one rewritable immediate of the base module.
type coldSite struct {
	kernel int   // index of the kernel the site belongs to
	loop   bool  // loop bound (true) or thread bounds check (false)
	value  int64 // value in the base module
}

// coldGen produces the cold-ptx payload sequence: the base module with
// every bounds check and loop bound rewritten from the seed and the
// request index. Bounds checks move up by a drawn offset, which leaves
// the work of the synthetic 64-thread launch unchanged; loop bounds move
// down by at most 1/16, so request cost stays within a few percent of
// the base module. A draw that would repeat a kernel already produced
// in this sequence is redrawn, so every kernel of every payload is new
// to the replica. The sequence depends only on the seed.
type coldGen struct {
	seed     int64
	segments []string // base text between sites; len(sites)+1 pieces
	sites    []coldSite
	shape    []int // per kernel: id of its text with all sites blanked
	index    int
	seen     map[string]bool
}

func newColdGen(base string, seed int64) (*coldGen, error) {
	g := &coldGen{seed: seed, seen: make(map[string]bool)}
	entries := indexAll(base, ".entry ")
	matches := siteRE.FindAllStringSubmatchIndex(base, -1)
	if len(entries) == 0 || len(matches) == 0 {
		return nil, fmt.Errorf("cold-ptx: base module has no kernels or no bounds to rewrite")
	}
	last := 0
	for _, m := range matches {
		k := 0
		for k+1 < len(entries) && entries[k+1] < m[0] {
			k++
		}
		v, err := strconv.ParseInt(base[m[4]:m[5]], 10, 64)
		if err != nil {
			return nil, err
		}
		g.segments = append(g.segments, base[last:m[4]])
		g.sites = append(g.sites, coldSite{kernel: k, loop: base[m[2]:m[3]] == "lt", value: v})
		last = m[5]
	}
	g.segments = append(g.segments, base[last:])

	// Kernels whose text differs only in the rewritten immediates (and
	// their names, which the analysis cache ignores) share a shape; the
	// uniqueness check is per shape.
	ids := make(map[string]int)
	for k, start := range entries {
		end := len(base)
		if k+1 < len(entries) {
			end = entries[k+1]
		}
		t := nameRE.ReplaceAllString(siteRE.ReplaceAllString(base[start:end], "setp.$1 _"), "K")
		if _, ok := ids[t]; !ok {
			ids[t] = len(ids)
		}
		g.shape = append(g.shape, ids[t])
	}
	return g, nil
}

func indexAll(s, sub string) []int {
	var out []int
	for off := 0; ; {
		i := strings.Index(s[off:], sub)
		if i < 0 {
			return out
		}
		out = append(out, off+i)
		off += i + len(sub)
	}
}

// nameRE matches kernel and parameter names, which carry the fusion
// counter of the generated module.
var nameRE = regexp.MustCompile(`fusion_\d+_\w+`)

// splitmix is a 64-bit mixing function; draw values are splitmix of the
// seed, request index, kernel, site and attempt.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *coldGen) draw(req, kernel, site, attempt int) uint64 {
	h := splitmix(uint64(g.seed))
	for _, v := range []int{req, kernel, site, attempt} {
		h = splitmix(h ^ uint64(v))
	}
	return h
}

// next returns the next request index and its PTX payload.
func (g *coldGen) next() (int, string) {
	req := g.index
	g.index++
	values := make([]int64, len(g.sites))
	for k := range g.shape {
		for attempt := 0; ; attempt++ {
			var key strings.Builder
			fmt.Fprintf(&key, "%d", g.shape[k])
			for i, s := range g.sites {
				if s.kernel != k {
					continue
				}
				h := g.draw(req, k, i, attempt)
				if s.loop {
					values[i] = s.value - int64(h%uint64(max(1, s.value/16)))
				} else {
					values[i] = s.value + 1 + int64(h%(1<<20))
				}
				fmt.Fprintf(&key, ",%d", values[i])
			}
			if !g.seen[key.String()] {
				g.seen[key.String()] = true
				break
			}
		}
	}
	var b strings.Builder
	for i, s := range g.segments {
		b.WriteString(s)
		if i < len(values) {
			b.WriteString(strconv.FormatInt(values[i], 10))
		}
	}
	return req, b.String()
}
