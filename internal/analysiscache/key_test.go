package analysiscache_test

import (
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
)

// goldenKernel has parameter names that prefix one another (p_1 and
// p_10) and a label after its last instruction.
const goldenKernel = ".version 6.0\n.target sm_61\n.address_size 64\n" +
	".visible .entry golden(\n.param .u64 p_1,\n.param .u64 p_10\n)\n{\n" +
	"ld.param.u64 %rd1, [p_10];\nld.param.u64 %rd2, [p_1];\nadd.s64 %rd3, %rd1, %rd2;\n" +
	"setp.eq.s64 %p1, %rd3, 0;\n@%p1 bra END;\nst.global.u64 [%rd1], %rd3;\nret;\nEND:\n}\n"

// TestKernelKeyGolden pins the exact key bytes of one kernel in each
// kernel namespace. Persisted stores and snapshots are addressed by
// these bytes, so a change here orphans every record already written.
// The digest must derive the same bytes as KernelKey.
func TestKernelKeyGolden(t *testing.T) {
	m, err := ptx.Parse(goldenKernel)
	if err != nil {
		t.Fatal(err)
	}
	k := m.Kernels[0]
	const wantText = ".entry $kernel(\n.param .u64 $arg0\n.param .u64 $arg1\n)\n" +
		"ld.param.u64 %rd1, [$arg1];\nld.param.u64 %rd2, [$arg0];\nadd.s64 %rd3, %rd1, %rd2;\n" +
		"setp.eq.s64 %p1, %rd3, 0;\n@%p1 bra END;\nst.global.u64 [%rd1], %rd3;\nret;\nEND:\n"
	if got := analysiscache.CanonicalKernelText(k); got != wantText {
		t.Fatalf("canonical text:\n%q\nwant\n%q", got, wantText)
	}
	d := analysiscache.NewDigest(k)
	for _, c := range []struct {
		ns     string
		extras []string
		want   string
	}{
		{"ptxa", nil, "ptxa:4b84c35c49f84432973c628c6a48a12a489617290184ec4a89ecd081976c46a9"},
		{"dcac", []string{"full=false;maxsteps=1000000;layout=2"},
			"dcac:e9bd7d8a46ff2bc4a3b7d390f15ba843547e13c0d0bc0959a7f7e70fd20fb1cd"},
		{"dca", []string{"grid=2;block=32;threads=64;full=false;maxsteps=0;lint=true;ref=false;bb=false", "0=7;1=20;"},
			"dca:c133c7be439f7fc823994442823396ebae3ffe2bbf496dd18e5e9c588b12dee1"},
	} {
		if got := analysiscache.KernelKey(c.ns, k, c.extras...); got != c.want {
			t.Errorf("KernelKey(%s) = %s, want %s", c.ns, got, c.want)
		}
		// Twice: deriving one key must leave the digest's state intact.
		for i := 0; i < 2; i++ {
			if got := d.Key(c.ns, c.extras...); got != c.want {
				t.Errorf("Digest.Key(%s) #%d = %s, want %s", c.ns, i, got, c.want)
			}
		}
	}
}
