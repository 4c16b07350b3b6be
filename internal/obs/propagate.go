package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// W3C Trace Context propagation: a `traceparent` header ties spans
// recorded in different processes (gateway, replicas, load generator)
// into one distributed trace. The gateway injects the header on every
// proxied attempt; the replica middleware extracts it so its local
// span forest hangs off the remote root, and `obscheck stitch` later
// merges the per-process Chrome trace files by trace ID.

// TraceparentHeader is the canonical (lowercase) W3C header name.
const TraceparentHeader = "traceparent"

// TraceID is a 16-byte W3C trace identifier (big-endian hex on the wire).
type TraceID [16]byte

// IsZero reports whether the trace ID is all zeroes (invalid per spec).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String returns the 32-hex-digit wire form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is an 8-byte W3C parent/span identifier.
type SpanID [8]byte

// IsZero reports whether the span ID is all zeroes (invalid per spec).
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String returns the 16-hex-digit wire form.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// TraceContext is a decoded traceparent: the trace identity plus the
// caller's span ID, which becomes the parent of the next local root.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether both identifiers are non-zero, as the W3C spec
// requires of a usable traceparent.
func (tc TraceContext) Valid() bool { return !tc.TraceID.IsZero() && !tc.SpanID.IsZero() }

// Traceparent renders the version-00 wire form
// ("00-<trace-id>-<span-id>-<flags>").
func (tc TraceContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", tc.TraceID, tc.SpanID, tc.Flags)
}

// NewTraceContext mints a fresh sampled trace context from
// crypto/rand, for callers (the load generator, the gateway edge) that
// originate a trace rather than continue one.
func NewTraceContext() TraceContext {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Effectively unreachable; fall back to the clock so IDs are
		// still distinct enough for correlation.
		binary.BigEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(b[8:16], splitmix64(uint64(time.Now().UnixNano())))
		binary.BigEndian.PutUint64(b[16:], splitmix64(binary.BigEndian.Uint64(b[:8])))
	}
	var tc TraceContext
	copy(tc.TraceID[:], b[:16])
	copy(tc.SpanID[:], b[16:])
	if !tc.Valid() { // astronomically unlikely all-zero draw
		tc.TraceID[0], tc.SpanID[0] = 1, 1
	}
	tc.Flags = 0x01
	return tc
}

// ParseTraceparent decodes a version-00 traceparent header value. Per
// the W3C spec it rejects version "ff", malformed field lengths,
// non-hex digits, and all-zero trace or span IDs; unknown (non-ff)
// versions are accepted if the 00-prefix fields parse.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return tc, fmt.Errorf("traceparent: want 4 fields, got %d", len(parts))
	}
	ver, tid, sid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 {
		return tc, fmt.Errorf("traceparent: version field %q is not 2 hex digits", ver)
	}
	if _, err := hex.DecodeString(ver); err != nil {
		return tc, fmt.Errorf("traceparent: bad version %q: %w", ver, err)
	}
	if strings.EqualFold(ver, "ff") {
		return tc, fmt.Errorf("traceparent: version ff is forbidden")
	}
	if ver == "00" && len(parts) != 4 {
		return tc, fmt.Errorf("traceparent: version 00 wants exactly 4 fields, got %d", len(parts))
	}
	if len(tid) != 32 {
		return tc, fmt.Errorf("traceparent: trace-id %q is not 32 hex digits", tid)
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(tid)); err != nil {
		return tc, fmt.Errorf("traceparent: bad trace-id: %w", err)
	}
	if tc.TraceID.IsZero() {
		return tc, fmt.Errorf("traceparent: all-zero trace-id")
	}
	if len(sid) != 16 {
		return tc, fmt.Errorf("traceparent: parent-id %q is not 16 hex digits", sid)
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(sid)); err != nil {
		return tc, fmt.Errorf("traceparent: bad parent-id: %w", err)
	}
	if tc.SpanID.IsZero() {
		return tc, fmt.Errorf("traceparent: all-zero parent-id")
	}
	if len(flags) != 2 {
		return tc, fmt.Errorf("traceparent: flags field %q is not 2 hex digits", flags)
	}
	fb, err := hex.DecodeString(flags)
	if err != nil {
		return tc, fmt.Errorf("traceparent: bad flags: %w", err)
	}
	tc.Flags = fb[0]
	return tc, nil
}

// WithRemoteParent records a remote trace context in ctx: the next
// root span started under ctx adopts its trace ID and parents itself
// under its span ID. Invalid contexts are ignored.
func WithRemoteParent(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteParentKey, tc)
}

// RemoteParent returns the remote trace context recorded in ctx, if any.
func RemoteParent(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(remoteParentKey).(TraceContext)
	return tc, ok
}

// Traceparent renders the header value for the current position in the
// trace: the active span's context if one is recorded, else the remote
// parent carried by ctx, else "".
func Traceparent(ctx context.Context) string {
	if tc := SpanFrom(ctx).TraceContext(); tc.Valid() {
		return tc.Traceparent()
	}
	if tc, ok := RemoteParent(ctx); ok {
		return tc.Traceparent()
	}
	return ""
}

// Transplant copies the observability identity of src — tracer,
// current span, request ID — onto dst, which supplies cancellation and
// deadlines. The server uses it to graft spans for analysis it runs
// detached on behalf of a request onto that request's trace without
// inheriting the request's cancellation.
func Transplant(dst, src context.Context) context.Context {
	if t, ok := src.Value(tracerKey).(*Tracer); ok {
		dst = context.WithValue(dst, tracerKey, t)
	}
	if sp, ok := src.Value(spanKey).(*Span); ok {
		dst = context.WithValue(dst, spanKey, sp)
	}
	if id, ok := src.Value(requestIDKey).(string); ok {
		dst = context.WithValue(dst, requestIDKey, id)
	}
	return dst
}
