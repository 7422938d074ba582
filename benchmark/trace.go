package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceK is how many of the quietest traced ops per-layer times are averaged
// over.
const traceK = 5

// span is one timed call from the benchmark into a layer's public function.
// Start and End are nanoseconds since the tracer was created; Parent is the
// ID of the span that was open when this one began (-1 for an op's root);
// spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans in memory; nothing is written until the run ends. A
// nil *tracer records nothing, so traced and untraced ops run the same code.
// It is used from the single client goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	open  int // ID of the innermost open span, -1 when none
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

// beginOp opens the root span of the next op and returns its ID.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.op++
	t.open = -1
	return t.begin(name)
}

// begin opens a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: t.open, Op: t.op, Start: int64(time.Since(t.epoch))})
	t.open = id
	return id
}

// end closes span id and makes its parent the innermost open span again.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.spans[id].Parent
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered int64
		at := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, at), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// opProfile is one op's trace folded by span name.
type opProfile struct {
	op    int
	total time.Duration            // root span duration
	self  map[string]time.Duration // Σ self time per span name (root included)
	wall  map[string]time.Duration // Σ duration per span name
	count map[string]int
}

// profiles folds the spans into one profile per op, in op order.
func profiles(spans []span) []opProfile {
	self := selfTimes(spans)
	byOp := make(map[int]*opProfile)
	var order []int
	for i, s := range spans {
		p := byOp[s.Op]
		if p == nil {
			p = &opProfile{op: s.Op, self: map[string]time.Duration{}, wall: map[string]time.Duration{}, count: map[string]int{}}
			byOp[s.Op] = p
			order = append(order, s.Op)
		}
		if s.Parent < 0 {
			p.total += time.Duration(s.End - s.Start)
		}
		p.self[s.Name] += time.Duration(self[i])
		p.wall[s.Name] += time.Duration(s.End - s.Start)
		p.count[s.Name]++
	}
	out := make([]opProfile, 0, len(order))
	for _, op := range order {
		out = append(out, *byOp[op])
	}
	return out
}

// fastestProfiles returns the k profiles with the smallest total, so that
// per-layer means are taken over the same quiet ops and parts sum to their
// whole.
func fastestProfiles(ps []opProfile, k int) []opProfile {
	s := append([]opProfile(nil), ps...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].total < s[j].total })
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

// meanWall is the mean, over the profiles, of the summed duration of the
// spans called name.
func meanWall(ps []opProfile, name string) time.Duration {
	if len(ps) == 0 {
		return 0
	}
	var sum time.Duration
	for _, p := range ps {
		sum += p.wall[name]
	}
	return sum / time.Duration(len(ps))
}

// meanPerCall is the mean duration of one span called name over the profiles.
func meanPerCall(ps []opProfile, name string) time.Duration {
	var sum time.Duration
	n := 0
	for _, p := range ps {
		sum += p.wall[name]
		n += p.count[name]
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// coverage is Σ self time of every non-root span ÷ Σ root duration: the
// share of the op that the named layers account for.
func coverage(ps []opProfile, root string) float64 {
	var layers, total time.Duration
	for _, p := range ps {
		total += p.total
		for name, d := range p.self {
			if name != root {
				layers += d
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(layers) / float64(total)
}
