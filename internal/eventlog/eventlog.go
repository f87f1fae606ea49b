// Package eventlog provides structured JSONL event logging for the
// simulators and the testbed: every scheduling round, charge session and
// node death is recorded as one JSON object per line, so runs can be
// inspected, diffed and replayed offline.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind labels an event.
type Kind string

// Event kinds.
const (
	KindRound  Kind = "round"  // a scheduling round completed
	KindCharge Kind = "charge" // one coalition's session executed
	KindDeath  Kind = "death"  // a node's battery hit zero
	KindTrial  Kind = "trial"  // a testbed trial completed
)

// Event is one structured log record. Numeric fields are used according
// to Kind; unused fields marshal as omitted zeros.
type Event struct {
	// Time is the virtual (simulation) or wall-relative time, seconds.
	Time float64 `json:"t"`
	// Kind selects the event type.
	Kind Kind `json:"kind"`
	// Scheduler labels the algorithm involved, when any.
	Scheduler string `json:"scheduler,omitempty"`
	// Node identifies the device involved, when any.
	Node string `json:"node,omitempty"`
	// Charger identifies the charger involved, when any.
	Charger string `json:"charger,omitempty"`
	// Cost is the monetary amount of the event, $.
	Cost float64 `json:"cost,omitempty"`
	// EnergyJ is the energy amount of the event, joules.
	EnergyJ float64 `json:"energyJ,omitempty"`
	// Devices counts devices involved (round size, coalition size…).
	Devices int `json:"devices,omitempty"`
	// Sessions counts sessions (for round events).
	Sessions int `json:"sessions,omitempty"`
}

// Logger writes events as JSON lines. It is safe for concurrent use.
// A nil *Logger is a valid no-op sink, so instrumented code never needs
// nil checks.
type Logger struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// New returns a Logger writing JSONL to w.
func New(w io.Writer) *Logger {
	return &Logger{enc: json.NewEncoder(w)}
}

// Log writes one event. Errors are returned so callers may choose to
// degrade gracefully; a nil receiver ignores the event.
func (l *Logger) Log(e Event) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.enc.Encode(e); err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	return nil
}

// Read decodes every event from a JSONL stream.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	return out, nil
}

// Filter returns the events of one kind.
func Filter(events []Event, kind Kind) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TotalCost sums the Cost field over events of the given kind.
func TotalCost(events []Event, kind Kind) float64 {
	var sum float64
	for _, e := range events {
		if e.Kind == kind {
			sum += e.Cost
		}
	}
	return sum
}
