// Package obs is the dependency-free observability layer of the
// pipeline: hierarchical span tracing with Chrome trace_event export,
// a structured leveled JSON logger with request-ID propagation, and a
// metrics registry (counters, gauges, histograms) with Prometheus
// text-format exposition.
//
// Everything is opt-in and context-carried: code instruments itself
// with obs.Start / logger calls unconditionally, and pays only a
// context lookup when no tracer or logger is installed. None of the
// instruments feed back into analysis results — the determinism
// harness proves prediction bytes are identical with observability on
// and off.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// Attr is one key/value annotation on a span or log line. String and
// integer values are carried unboxed, so building one allocates
// nothing: instrumented code builds attributes whether or not a tracer
// is installed.
type Attr struct {
	Key  string
	kind attrKind
	str  string // kindString
	num  int64  // kindInt
	val  any    // kindAny
}

// attrKind says which field of an Attr carries its value.
type attrKind uint8

const (
	kindAny attrKind = iota
	kindString
	kindInt
)

// Value returns the attribute's value: a string for String, an int64
// for Int and Int64, and the given value for the other constructors.
func (a Attr) Value() any {
	switch a.kind {
	case kindString:
		return a.str
	case kindInt:
		return a.num
	}
	return a.val
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: kindString, str: v} }

// Int builds an int attribute.
func Int(k string, v int) Attr { return Attr{Key: k, kind: kindInt, num: int64(v)} }

// Int64 builds an int64 attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, kind: kindInt, num: v} }

// Float64 builds a float64 attribute.
func Float64(k string, v float64) Attr { return Attr{Key: k, val: v} }

// Bool builds a bool attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, val: v} }

// Duration builds a duration attribute (rendered as a string, e.g. "1.2ms").
func Duration(k string, v time.Duration) Attr { return Attr{Key: k, val: v} }

// Any builds an attribute of any other value (errors and fmt.Stringers
// render as their text).
func Any(k string, v any) Attr { return Attr{Key: k, val: v} }

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	requestIDKey
	remoteParentKey
)

// WithTracer installs a tracer in the context; obs.Start on the
// returned context (and its descendants) records spans into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the tracer installed in ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithRequestID stamps a request identifier into the context; the
// logger includes it on every line logged under that context.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request identifier stamped into ctx, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// NewRequestID generates a fresh 16-hex-digit request identifier.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unreachable; fall back to a
		// timestamp so request correlation still works.
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
