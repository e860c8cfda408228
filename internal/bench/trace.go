package bench

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Recorder keeps the spans of a traced repetition in memory. Spans are
// recorded from the benchmark's own code, around calls into each layer's
// public functions, so the program under test carries no tracing of its
// own. A span named "bench.*" groups work and is not a layer; every other
// span name is "<module>.<operation>" and counts toward that layer. The
// zero value is not usable; call NewRecorder.
type Recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

type span struct {
	id, parent int
	name       string
	tid        int
	start, end time.Duration // since origin; end < 0 while open
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Start opens a span under parent (0 for a root) and returns its id. tid
// is the Chrome trace lane the span is drawn on.
func (r *Recorder) Start(parent int, name string, tid int) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name, tid: tid, start: now, end: -1})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].end = now
}

// Time runs f inside a span on lane 0.
func (r *Recorder) Time(parent int, name string, f func()) {
	id := r.Start(parent, name, 0)
	f()
	r.End(id)
}

// duration returns span id's length (0 while it is open).
func (r *Recorder) duration(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	if s.end < 0 {
		return 0
	}
	return s.end - s.start
}

// closed returns a copy of the finished spans.
func (r *Recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

func isLayer(name string) bool { return !strings.HasPrefix(name, "bench.") }

// SelfTimes returns, per span name, the summed self time of every span
// under root (root itself included): each span's duration minus the part
// of it its child spans cover.
func (r *Recorder) SelfTimes(root int) map[string]time.Duration {
	spans := r.closed()
	children := map[int][]span{}
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	out := map[string]time.Duration{}
	var walk func(s span)
	walk = func(s span) {
		var ivs [][2]time.Duration
		for _, c := range children[s.id] {
			ivs = append(ivs, [2]time.Duration{c.start, c.end})
			walk(c)
		}
		out[s.name] += (s.end - s.start) - covered(ivs, s.start, s.end)
	}
	for _, s := range spans {
		if s.id == root {
			walk(s)
		}
	}
	return out
}

// Coverage is the share of root's wall time that layer spans cover. For
// a sequential replay, whose layer spans never overlap, it equals the sum
// of the layer self times over the root's duration.
func (r *Recorder) Coverage(root int) float64 {
	spans := r.closed()
	parent := map[int]int{}
	var rs span
	for _, s := range spans {
		parent[s.id] = s.parent
		if s.id == root {
			rs = s
		}
	}
	under := func(id int) bool {
		for id != 0 {
			if id == root {
				return true
			}
			id = parent[id]
		}
		return false
	}
	var ivs [][2]time.Duration
	for _, s := range spans {
		if s.id != root && isLayer(s.name) && under(s.id) {
			ivs = append(ivs, [2]time.Duration{s.start, s.end})
		}
	}
	if rs.end <= rs.start {
		return 0
	}
	return float64(covered(ivs, rs.start, rs.end)) / float64(rs.end-rs.start)
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// WriteChrome writes every finished span as Chrome trace-event JSON,
// viewable in chrome://tracing or Perfetto. Each event carries its span
// id and parent id in args.
func (r *Recorder) WriteChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := r.closed()
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events = append(events, event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
