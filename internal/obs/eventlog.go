package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// EventLogger writes one-line structured key=value events — the
// operational log of the long-running paths (slow solves, dropped
// connections, drain progress). Distinct from internal/eventlog, which
// records *simulation* events as JSONL for offline replay: this logger
// is for humans tailing a service.
//
// A nil *EventLogger discards events, so instrumented code never guards
// its log calls. All methods are safe for concurrent use.
type EventLogger struct {
	mu sync.Mutex
	w  io.Writer
	// now is the timestamp source; tests pin it for stable output.
	now func() time.Time
}

// NewEventLogger builds a logger writing to w.
func NewEventLogger(w io.Writer) *EventLogger {
	return &EventLogger{w: w, now: time.Now}
}

// Event writes one line: `ts=<RFC3339> event=<name> k=v k=v ...`.
// kv is alternating key, value pairs; values are rendered with %v and
// quoted only when they contain whitespace or quotes. A trailing
// odd key gets an empty value. Write errors are swallowed — logging
// must never take the hot path down. No-op on nil.
func (l *EventLogger) Event(name string, kv ...any) {
	if l == nil {
		return
	}
	var sb strings.Builder
	l.mu.Lock()
	defer l.mu.Unlock()
	sb.WriteString("ts=")
	sb.WriteString(l.now().UTC().Format(time.RFC3339Nano))
	sb.WriteString(" event=")
	sb.WriteString(eventValue(name))
	for i := 0; i < len(kv); i += 2 {
		sb.WriteByte(' ')
		sb.WriteString(fmt.Sprintf("%v", kv[i]))
		sb.WriteByte('=')
		if i+1 < len(kv) {
			sb.WriteString(eventValue(fmt.Sprintf("%v", kv[i+1])))
		}
	}
	sb.WriteByte('\n')
	_, _ = io.WriteString(l.w, sb.String())
}

// eventValue quotes a rendered value only when needed to keep the line
// unambiguous (spaces, quotes, control characters, or emptiness).
func eventValue(s string) string {
	if s == "" {
		return `""`
	}
	for _, r := range s {
		if r <= ' ' || r == '"' || r == '=' || r == 0x7f {
			return strconv.Quote(s)
		}
	}
	return s
}
