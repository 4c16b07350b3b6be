package obs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Level is a log severity.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel parses a level name ("debug", "info", "warn"/"warning",
// "error").
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// Logger writes structured JSON log lines: one object per line with
// ts, level, msg, the request_id stamped into the context (when
// present), and the attribute key/value pairs. A nil *Logger discards
// everything, so call sites never gate on logging being configured.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	level *atomic.Int32
	base  []Attr
	now   func() time.Time
}

// NewLogger builds a logger writing to w at the given minimum level.
func NewLogger(w io.Writer, level Level) *Logger {
	lv := &atomic.Int32{}
	lv.Store(int32(level))
	return &Logger{mu: &sync.Mutex{}, w: w, level: lv, now: time.Now}
}

// With returns a logger that includes attrs on every line. The clone
// shares the parent's writer, lock and level.
func (l *Logger) With(attrs ...Attr) *Logger {
	if l == nil || len(attrs) == 0 {
		return l
	}
	clone := *l
	clone.base = append(append([]Attr(nil), l.base...), attrs...)
	return &clone
}

// SetLevel changes the minimum level at runtime.
func (l *Logger) SetLevel(level Level) {
	if l == nil {
		return
	}
	l.level.Store(int32(level))
}

// Enabled reports whether a line at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && int32(level) >= l.level.Load()
}

// Log writes one line at the given level under ctx (whose request id,
// if any, is included).
func (l *Logger) Log(ctx context.Context, level Level, msg string, attrs ...Attr) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.Grow(128)
	b.WriteString(`{"ts":`)
	appendJSONString(&b, l.now().UTC().Format(time.RFC3339Nano))
	b.WriteString(`,"level":`)
	appendJSONString(&b, level.String())
	b.WriteString(`,"msg":`)
	appendJSONString(&b, msg)
	if ctx != nil {
		if rid := RequestID(ctx); rid != "" {
			b.WriteString(`,"request_id":`)
			appendJSONString(&b, rid)
		}
	}
	for _, a := range l.base {
		appendAttr(&b, a)
	}
	for _, a := range attrs {
		appendAttr(&b, a)
	}
	b.WriteString("}\n")
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, b.String())
}

// Debug logs at debug level without a context.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.Log(nil, LevelDebug, msg, attrs...) }

// Info logs at info level without a context.
func (l *Logger) Info(msg string, attrs ...Attr) { l.Log(nil, LevelInfo, msg, attrs...) }

// Warn logs at warn level without a context.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.Log(nil, LevelWarn, msg, attrs...) }

// Error logs at error level without a context.
func (l *Logger) Error(msg string, attrs ...Attr) { l.Log(nil, LevelError, msg, attrs...) }

// DebugCtx logs at debug level with the request id from ctx.
func (l *Logger) DebugCtx(ctx context.Context, msg string, attrs ...Attr) {
	l.Log(ctx, LevelDebug, msg, attrs...)
}

// InfoCtx logs at info level with the request id from ctx.
func (l *Logger) InfoCtx(ctx context.Context, msg string, attrs ...Attr) {
	l.Log(ctx, LevelInfo, msg, attrs...)
}

// WarnCtx logs at warn level with the request id from ctx.
func (l *Logger) WarnCtx(ctx context.Context, msg string, attrs ...Attr) {
	l.Log(ctx, LevelWarn, msg, attrs...)
}

// ErrorCtx logs at error level with the request id from ctx.
func (l *Logger) ErrorCtx(ctx context.Context, msg string, attrs ...Attr) {
	l.Log(ctx, LevelError, msg, attrs...)
}

func appendAttr(b *strings.Builder, a Attr) {
	b.WriteByte(',')
	appendJSONString(b, a.Key)
	b.WriteByte(':')
	switch a.kind {
	case kindString:
		appendJSONString(b, a.str)
		return
	case kindInt:
		b.WriteString(strconv.FormatInt(a.num, 10))
		return
	}
	switch v := a.val.(type) {
	case string:
		appendJSONString(b, v)
	case bool:
		b.WriteString(strconv.FormatBool(v))
	case int:
		b.WriteString(strconv.FormatInt(int64(v), 10))
	case int64:
		b.WriteString(strconv.FormatInt(v, 10))
	case uint64:
		b.WriteString(strconv.FormatUint(v, 10))
	case float64:
		b.WriteString(formatFloat(v))
	case time.Duration:
		appendJSONString(b, v.String())
	case error:
		appendJSONString(b, v.Error())
	case fmt.Stringer:
		appendJSONString(b, v.String())
	case nil:
		b.WriteString("null")
	default:
		appendJSONString(b, fmt.Sprintf("%v", v))
	}
}

// formatFloat renders a float as a JSON number (NaN/Inf are not valid
// JSON numbers, so they become strings).
func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	switch s {
	case "NaN", "+Inf", "-Inf", "Inf":
		return strconv.Quote(s)
	}
	return s
}

// appendJSONString writes s as a JSON string literal. Hand-rolled so
// the logger controls key order and never allocates an encoder.
func appendJSONString(b *strings.Builder, s string) {
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		case utf8.RuneError:
			b.WriteString(`�`)
		default:
			if r < 0x20 {
				fmt.Fprintf(b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
}
