package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/workloads"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started; Parent indexes the span list (-1 for a root);
// Req is the request (or stream item) the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	depth  int
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. Spans nest by depth within one Req: the
// load generator drives a single client, so exactly one request (or stream
// item) is in flight and every layer's span belongs to the current one.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	cur   atomic.Int64 // the in-flight request or item

	mu    sync.Mutex
	spans []span
	limit int
}

func newTracer(limit int) *tracer {
	return &tracer{epoch: time.Now(), limit: limit, spans: make([]span, 0, limit)}
}

// record appends a span for the current request, unless recording is off
// or the span list is full.
func (t *tracer) record(name string, depth int, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1, Req: t.cur.Load(), depth: depth}
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// full reports whether the span list has reached its limit.
func (t *tracer) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= t.limit
}

// link sets every span's parent: the span one level up with the same Req.
// Call it once recording has stopped.
func (t *tracer) link() {
	type key struct {
		req   int64
		depth int
	}
	at := make(map[key]int, len(t.spans))
	for i, s := range t.spans {
		at[key{s.Req, s.depth}] = i
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.depth == 0 {
			continue
		}
		if p, ok := at[key{s.Req, s.depth - 1}]; ok {
			s.Parent = p
		}
	}
}

// children groups each root span's descendants by name.
func (t *tracer) children() map[int]map[string]span {
	out := map[int]map[string]span{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		root := s.Parent
		for t.spans[root].Parent >= 0 {
			root = t.spans[root].Parent
		}
		if out[root] == nil {
			out[root] = map[string]span{}
		}
		out[root][s.Name] = s
	}
	return out
}

// write saves the span list as JSON.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// middleware records a span named name around every /v1/select next
// serves; everything else (the router's health probes, stats reads)
// passes through unrecorded.
func (t *tracer) middleware(name string, depth int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/select" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(name, depth, start, time.Now())
	})
}

// tracedDevice wraps a backend.Device from outside. Kind, Arch and clock
// control are forwarded by embedding; Fork returns another tracedDevice
// stamped with when it was forked; NewSampler returns a sampler that
// records each run, and keeps the streaming seam when the wrapped sampler
// has one.
type tracedDevice struct {
	backend.Device
	t        *tracer
	profile  string // span name of a batch profiling run
	sample   string // span name of a streamed run (the governor's device only)
	depth    int
	forkedAt time.Time
}

func (d *tracedDevice) Fork(seed int64) backend.Device {
	f := *d
	f.Device = d.Device.Fork(seed)
	f.forkedAt = time.Now()
	return &f
}

func (d *tracedDevice) NewSampler(cfg backend.SampleConfig) backend.Sampler {
	inner := d.Device.NewSampler(cfg)
	s := tracedSampler{inner: inner, dev: d}
	if ss, ok := inner.(backend.StreamSampler); ok {
		ts := &tracedStreamSampler{tracedSampler: s, stream: ss}
		ts.hold = func(x backend.Sample) { ts.held = append(ts.held, x) }
		return ts
	}
	return &s
}

// tracedSampler passes straight through while recording is off.
type tracedSampler struct {
	inner backend.Sampler
	dev   *tracedDevice
}

// Profile records a span from the fork that minted the device, when there
// was one — serve forks a device per request, so seeding the fork and the
// sampler is part of the profiling run's cost — or from the call.
func (s *tracedSampler) Profile(w backend.Workload, runIndex int) (backend.Run, error) {
	if !s.dev.t.on.Load() {
		return s.inner.Profile(w, runIndex)
	}
	start := time.Now()
	if !s.dev.forkedAt.IsZero() {
		start = s.dev.forkedAt
	}
	run, err := s.inner.Profile(w, runIndex)
	s.dev.t.record(s.dev.profile, s.dev.depth, start, time.Now())
	return run, err
}

type tracedStreamSampler struct {
	tracedSampler
	stream backend.StreamSampler
	held   []backend.Sample
	hold   func(backend.Sample) // bound once: appends to held
}

// ProfileStream records the device's run as one span. While recording, it
// holds the yielded samples back and hands them to yield after the span
// closes, so the caller's per-sample work (the governor's change-point
// detector and drift sums) counts as the caller's time, not the device's.
// The caller sees the same samples in the same order either way.
func (s *tracedStreamSampler) ProfileStream(w backend.Workload, runIndex int, yield func(backend.Sample)) (backend.Run, error) {
	if !s.dev.t.on.Load() {
		return s.stream.ProfileStream(w, runIndex, yield)
	}
	s.held = s.held[:0]
	start := time.Now()
	run, err := s.stream.ProfileStream(w, runIndex, s.hold)
	s.dev.t.record(s.dev.sample, s.dev.depth, start, time.Now())
	if yield != nil {
		for _, x := range s.held {
			yield(x)
		}
	}
	return run, err
}

// itemClock wraps the governed workload stream and marks item boundaries:
// an item runs from the Next call that hands it out to the Next call that
// asks for its successor. It keeps every item's wall time of the current
// pass and, with a tracer, records one span per item.
type itemClock struct {
	seq   *workloads.Sequence
	t     *tracer
	durs  []float64 // ms per item of the current pass
	start time.Time
	open  bool
}

func newItemClock(seq *workloads.Sequence, t *tracer) *itemClock {
	return &itemClock{seq: seq, t: t, durs: make([]float64, 0, seq.Len())}
}

// reset rewinds the stream for another pass.
func (c *itemClock) reset() {
	c.seq.Reset()
	c.durs = c.durs[:0]
	c.open = false
}

func (c *itemClock) Next() (backend.Workload, bool) {
	now := time.Now()
	if c.open {
		c.durs = append(c.durs, ms(now.Sub(c.start)))
		if c.t != nil {
			c.t.record("governor.item", 0, c.start, now)
		}
	}
	w, ok := c.seq.Next()
	c.open = ok
	if ok {
		if c.t != nil {
			c.t.cur.Add(1) // one governor runs at a time, so ids stay unique
		}
		c.start = time.Now()
	}
	return w, ok
}
