package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cnnperf"
)

// writePTX drops a one-kernel module into a temp file for runLint.
func writePTX(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "k.ptx")
	src := ".version 6.0\n.target sm_61\n.address_size 64\n" + body
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunLintVerdicts exercises the documented lint exit-code contract:
// nil for clean or info-only modules, errLintWarnings for warnings,
// errLintErrors for error-severity findings.
func TestRunLintVerdicts(t *testing.T) {
	cfg := cnnperf.DefaultConfig()
	cases := []struct {
		name string
		body string
		want error
	}{
		{
			name: "clean",
			body: `
.visible .entry clean()
{
	mov.u32 %r1, %tid.x;
	st.global.u32 [%r1], %r1;
	ret;
}
`,
			want: nil,
		},
		{
			// A hoistable loop-invariant load is PTXA012, info-severity:
			// still a clean exit.
			name: "info only",
			body: `
.visible .entry infoonly(
.param .u64 p0
)
{
	ld.param.u64 %rd1, [p0];
	mov.u32 %r1, 0;
L:
	ld.global.f32 %f1, [%rd1];
	st.global.f32 [%rd1], %f1;
	add.s32 %r1, %r1, 1;
	setp.lt.s32 %p1, %r1, 16;
	@%p1 bra L;
	ret;
}
`,
			want: nil,
		},
		{
			// A provably uncoalesced global stride is PTXA010,
			// warning-severity.
			name: "warnings",
			body: `
.visible .entry warn(
.param .u64 p0
)
{
	ld.param.u64 %rd1, [p0];
	mov.u32 %r1, %tid.x;
	mul.wide.s32 %rd2, %r1, 64;
	add.s64 %rd3, %rd1, %rd2;
	ld.global.f32 %f1, [%rd3];
	st.global.f32 [%rd3], %f1;
	ret;
}
`,
			want: errLintWarnings,
		},
		{
			// Use-before-def is PTXA001, error-severity.
			name: "errors",
			body: `
.visible .entry bad()
{
	add.s32 %r1, %r2, 1;
	ret;
}
`,
			want: errLintErrors,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runLint(context.Background(), []string{writePTX(t, tc.body)}, cfg)
			if !errors.Is(err, tc.want) {
				t.Errorf("runLint verdict = %v, want %v", err, tc.want)
			}
		})
	}
}
