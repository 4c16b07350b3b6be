package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedLogger returns a logger with a frozen clock so lines are
// byte-reproducible.
func fixedLogger(buf *bytes.Buffer, level Level) *Logger {
	l := NewLogger(buf, level)
	l.now = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.UTC) }
	return l
}

func TestLoggerLineFormat(t *testing.T) {
	var buf bytes.Buffer
	l := fixedLogger(&buf, LevelDebug)
	ctx := WithRequestID(context.Background(), "abc123")
	l.InfoCtx(ctx, "request done",
		String("path", "/v1/predict"),
		Int("status", 200),
		Float64("dur", 1.5),
		Bool("cached", true),
		Duration("window", 2*time.Millisecond),
	)
	got := buf.String()
	want := `{"ts":"2026-08-06T12:00:00.123456789Z","level":"info","msg":"request done","request_id":"abc123","path":"/v1/predict","status":200,"dur":1.5,"cached":true,"window":"2ms"}` + "\n"
	if got != want {
		t.Fatalf("line:\n%q\nwant:\n%q", got, want)
	}
	// And it must be valid JSON.
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("line is not JSON: %v", err)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := fixedLogger(&buf, LevelWarn)
	l.Debug("hidden")
	l.Info("hidden")
	l.Warn("shown")
	l.Error("shown too", Any("err", errors.New("boom")))
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", lines, buf.String())
	}
	if !strings.Contains(buf.String(), `"err":"boom"`) {
		t.Fatalf("error attr not rendered: %s", buf.String())
	}
	l.SetLevel(LevelDebug)
	l.Debug("now visible")
	if !strings.Contains(buf.String(), "now visible") {
		t.Fatalf("SetLevel did not lower the threshold")
	}
}

func TestLoggerWith(t *testing.T) {
	var buf bytes.Buffer
	l := fixedLogger(&buf, LevelInfo).With(String("app", "cnnperfd"))
	l.Info("hello")
	if !strings.Contains(buf.String(), `"app":"cnnperfd"`) {
		t.Fatalf("base attr missing: %s", buf.String())
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Info("nothing")
	l.ErrorCtx(context.Background(), "nothing")
	if l.With(String("a", "b")) != nil {
		t.Fatal("With on nil logger should stay nil")
	}
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
	l.SetLevel(LevelDebug)
}

func TestLoggerEscaping(t *testing.T) {
	var buf bytes.Buffer
	l := fixedLogger(&buf, LevelInfo)
	l.Info("quote \" backslash \\ newline \n tab \t done", String("k", "v\"w"))
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("escaped line is not JSON: %v\n%s", err, buf.String())
	}
	if m["msg"] != "quote \" backslash \\ newline \n tab \t done" {
		t.Fatalf("msg round-trip failed: %q", m["msg"])
	}
	if m["k"] != `v"w` {
		t.Fatalf("attr round-trip failed: %q", m["k"])
	}
}

func TestLoggerConcurrentLinesStayWhole(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("line", Int("worker", i), Int("j", j))
			}
		}(i)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved line: %v\n%q", err, line)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "INFO": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestRequestIDHelpers(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty ctx has a request id")
	}
	ctx = WithRequestID(ctx, "rid-1")
	if RequestID(ctx) != "rid-1" {
		t.Fatal("request id not propagated")
	}
	a, b := NewRequestID(), NewRequestID()
	if a == b || len(a) != 16 {
		t.Fatalf("NewRequestID: %q %q", a, b)
	}
}
