package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx, sp := Start(context.Background(), "stage")
	if sp != nil {
		t.Fatalf("Start without tracer returned a span")
	}
	// All span methods must be nil-safe.
	sp.End()
	sp.SetAttr(String("k", "v"))
	if sp.Name() != "" || sp.Duration() != 0 || sp.Children() != nil {
		t.Fatalf("nil span accessors not zero")
	}
	if SpanFrom(ctx) != nil {
		t.Fatalf("noop Start leaked a span into the context")
	}
}

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "root", String("model", "alexnet"))
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "root" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "child" || kids[1].Name() != "sibling" {
		t.Fatalf("children of root: %v", kids)
	}
	gk := kids[0].Children()
	if len(gk) != 1 || gk[0].Name() != "grandchild" {
		t.Fatalf("grandchildren: %v", gk)
	}
	if tr.SpanCount() != 4 {
		t.Fatalf("span count = %d, want 4", tr.SpanCount())
	}
	tree := tr.Tree()
	for _, want := range []string{"root", "  child", "    grandchild", "  sibling", "model=alexnet"} {
		if !strings.Contains(tree, want) {
			t.Errorf("Tree() missing %q:\n%s", want, tree)
		}
	}
}

// TestConcurrentChildSpans exercises span creation from many
// goroutines under one parent — the shape of the worker-pool fan-out —
// and must pass under -race.
func TestConcurrentChildSpans(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")

	const workers = 32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, child := Start(ctx, "child", Int("i", i))
			_, g := Start(cctx, "grandchild")
			g.End()
			child.End()
		}(i)
	}
	wg.Wait()
	root.End()

	kids := root.Children()
	if len(kids) != workers {
		t.Fatalf("children = %d, want %d", len(kids), workers)
	}
	for _, k := range kids {
		if k.Name() != "child" {
			t.Fatalf("unexpected child %q", k.Name())
		}
		if g := k.Children(); len(g) != 1 || g[0].Name() != "grandchild" {
			t.Fatalf("child %v has grandchildren %v", k, g)
		}
		if k.Duration() <= 0 {
			t.Fatalf("child has no duration")
		}
	}
	if tr.SpanCount() != 1+2*workers {
		t.Fatalf("span count = %d, want %d", tr.SpanCount(), 1+2*workers)
	}

	// The export must be valid even with concurrent siblings (they are
	// spread over lanes so no lane holds partially overlapping events).
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	names, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, buf.String())
	}
	if len(names) != 1+2*workers {
		t.Fatalf("exported %d spans, want %d", len(names), 1+2*workers)
	}
}

func TestSamplerSuppressesDescendants(t *testing.T) {
	tr := NewTracer()
	tr.SetSampler(NthSampler(2)) // admit roots 0, 2, 4, ...
	base := WithTracer(context.Background(), tr)

	for i := 0; i < 4; i++ {
		ctx, root := Start(base, "root")
		_, child := Start(ctx, "child")
		child.End()
		root.End()
	}
	if got := len(tr.Roots()); got != 2 {
		t.Fatalf("recorded %d roots, want 2", got)
	}
	// Children of suppressed roots must not become new roots.
	if tr.SpanCount() != 4 {
		t.Fatalf("span count = %d, want 4 (2 roots + 2 children)", tr.SpanCount())
	}
}

func TestSpanLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(2)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	_, a := Start(ctx, "a")
	a.End()
	bctx, b := Start(ctx, "b") // over limit: dropped
	if b != nil {
		t.Fatalf("span over limit not dropped")
	}
	// Descendants of a dropped span attach to the nearest recorded
	// ancestor instead of vanishing silently... but they are over the
	// limit too, so they are dropped as well.
	_, c := Start(bctx, "c")
	if c != nil {
		t.Fatalf("descendant of dropped span recorded over limit")
	}
	root.End()
	if tr.SpanCount() != 2 || tr.Dropped() != 2 {
		t.Fatalf("count=%d dropped=%d, want 2/2", tr.SpanCount(), tr.Dropped())
	}
}

// TestSpanLimitMidTreeConcurrent hits the span limit while many
// goroutines race to add children — the count must never overshoot by
// more than the racing writers, every drop must be accounted, and the
// surviving tree must still export as a valid trace. Run under -race.
func TestSpanLimitMidTreeConcurrent(t *testing.T) {
	const limit, workers, perWorker = 16, 8, 10
	tr := NewTracer()
	tr.SetLimit(limit)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cctx, c := Start(ctx, "child")
				// Descendants of a dropped child attach upward (or drop
				// too); either way they must not corrupt the tree.
				_, g := Start(cctx, "grandchild")
				g.End()
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()

	total := 1 + 2*workers*perWorker
	count, dropped := tr.SpanCount(), tr.Dropped()
	// The limit check and the count increment are not one atomic step,
	// so racing writers can overshoot by at most their number.
	if count < limit || count > limit+workers {
		t.Fatalf("span count %d, want within [%d, %d]", count, limit, limit+workers)
	}
	if count+dropped != total {
		t.Fatalf("count %d + dropped %d != started %d", count, dropped, total)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	names, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("limited trace invalid: %v\n%s", err, buf.String())
	}
	if len(names) != count {
		t.Fatalf("exported %d spans, recorded %d", len(names), count)
	}
}

// TestSampledOutRootChildrenDoNotLeak pins the suppressed-sentinel
// contract: when the sampler rejects a root, spans started under the
// rejected context (even concurrently, even ended after the fact) must
// not be recorded, must not become roots, and a later Reset must leave
// the tracer reusable. Run under -race.
func TestSampledOutRootChildrenDoNotLeak(t *testing.T) {
	tr := NewTracer()
	tr.SetSampler(func(string) bool { return false })
	ctx := WithTracer(context.Background(), tr)

	rctx, root := Start(ctx, "root")
	if root != nil {
		t.Fatal("sampled-out root recorded")
	}
	var wg sync.WaitGroup
	spans := make([]*Span, 16)
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, c := Start(rctx, "child")
			_, g := Start(cctx, "grandchild")
			spans[i] = c
			g.End()
			c.End() // ending a nil span after the root was rejected is fine
		}(i)
	}
	wg.Wait()
	for i, c := range spans {
		if c != nil {
			t.Fatalf("child %d of a sampled-out root was recorded", i)
		}
	}
	if n := len(tr.Roots()); n != 0 {
		t.Fatalf("%d roots leaked from a sampled-out trace", n)
	}
	if tr.SpanCount() != 0 {
		t.Fatalf("span count %d, want 0", tr.SpanCount())
	}
	// Sampling is policy, not loss: nothing counts as dropped.
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", tr.Dropped())
	}

	// The tracer recovers for its next pooled use.
	tr.Reset()
	tr.SetSampler(nil)
	_, r2 := Start(WithTracer(context.Background(), tr), "fresh")
	r2.End()
	if len(tr.Roots()) != 1 || tr.SpanCount() != 1 {
		t.Fatalf("tracer unusable after sampled-out trace + Reset: roots=%d spans=%d",
			len(tr.Roots()), tr.SpanCount())
	}
}

// TestResetRecyclesSpans pins the pooling contract: after Reset the
// same span objects come back off the freelist, so a warmed tracer
// records its next trace without fresh span allocations.
func TestResetRecyclesSpans(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	cctx, root := Start(ctx, "root")
	_, child := Start(cctx, "child")
	child.End()
	root.End()
	firstRoot, firstChild := root, child

	tr.Reset()
	if len(tr.Roots()) != 0 || tr.SpanCount() != 0 {
		t.Fatalf("Reset left roots=%d spans=%d", len(tr.Roots()), tr.SpanCount())
	}
	if firstRoot.Name() != "" || firstRoot.TraceID() != (TraceID{}) {
		t.Fatalf("recycled span retains state: %q/%s", firstRoot.Name(), firstRoot.TraceID())
	}

	ctx2 := WithTracer(context.Background(), tr)
	c2, root2 := Start(ctx2, "again")
	_, child2 := Start(c2, "again.child")
	child2.End()
	root2.End()
	reused := map[*Span]bool{firstRoot: true, firstChild: true}
	if !reused[root2] || !reused[child2] {
		t.Error("spans after Reset were not drawn from the freelist")
	}
	if root2.TraceID().IsZero() {
		t.Error("reused span has no fresh trace ID")
	}
}

func TestChromeTraceDurationsNest(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	_, a := Start(ctx, "stage.a")
	time.Sleep(2 * time.Millisecond)
	a.End()
	_, b := Start(ctx, "stage.b")
	time.Sleep(1 * time.Millisecond)
	b.End()
	root.End()

	if root.Duration() < a.Duration()+b.Duration() {
		t.Fatalf("root %v shorter than children %v + %v", root.Duration(), a.Duration(), b.Duration())
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	names, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid trace: %v\n%s", err, buf.String())
	}
	want := map[string]bool{"root": true, "stage.a": true, "stage.b": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("trace missing spans %v", want)
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      `nope`,
		"empty":         `{"traceEvents":[]}`,
		"no name":       `{"traceEvents":[{"ph":"X","ts":1,"dur":1}]}`,
		"bad phase":     `{"traceEvents":[{"name":"x","ph":"Z","ts":1}]}`,
		"negative time": `{"traceEvents":[{"name":"x","ph":"X","ts":-1}]}`,
		"partial overlap": `{"traceEvents":[
			{"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":10},
			{"name":"b","ph":"X","pid":1,"tid":1,"ts":5,"dur":10}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestStageTotals(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, "stage")
		time.Sleep(time.Millisecond)
		s.End()
	}
	root.End()
	totals := tr.StageTotals()
	if totals["stage"].Count != 3 || totals["stage"].Total <= 0 {
		t.Fatalf("stage totals = %+v", totals["stage"])
	}
	if totals["root"].Count != 1 {
		t.Fatalf("root totals = %+v", totals["root"])
	}
}

// TestZeroAllocUntracedStart pins that instrumentation costs no
// allocation without a tracer: an untraced Start with string and
// integer attributes, SetAttr and End on its nil span. Attribute
// values that do not fit a pointer would otherwise be boxed on every
// call, tracer or not.
func TestZeroAllocUntracedStart(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctx := context.Background()
	kernel := strings.Repeat("fusion_", 6) // a non-constant string
	iters := 1 << 20                       // beyond the runtime's preboxed small integers
	allocs := testing.AllocsPerRun(200, func() {
		_, sp := Start(ctx, "absint", String("kernel", kernel), Int("launches", iters))
		sp.SetAttr(Int("iterations", iters), Int64("executed", int64(iters)))
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced Start with String/Int attributes: %.1f allocs, want 0", allocs)
	}
}
