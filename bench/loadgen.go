package main

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts one phase's operations.
type tally struct {
	attempted, ok, failed int64
	wrong                 int64   // answers that differ from the reference (also failed)
	hits                  int64   // answers served from a plan cache
	energyPct             float64 // Σ predicted energy saving over ok answers
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.wrong += o.wrong
	t.hits += o.hits
	t.energyPct += o.energyPct
}

// worker is one load-generator connection's private state.
type worker struct {
	t   tally
	buf bytes.Buffer // response body, reused
}

// caller performs operation i on worker w, counts it in w.t, and reports
// whether it succeeded with the right answer.
type caller func(w *worker, i int) bool

// openResult is an open-loop phase: each request timed from when it was
// due, failures at +Inf, and how late the generator sent each one.
type openResult struct {
	lat, late []float64 // ms, indexed by request
	t         tally
	elapsed   time.Duration
}

// openLoop sends n requests on a fixed schedule of rate per second,
// regardless of how fast answers come back, over conns connections:
// request i is due at start + i/rate, and a connection still busy with an
// earlier request sends it late. Latency counts from the due time, so a
// stall is charged to every request it delays.
func openLoop(n int, rate float64, conns int, call caller) (openResult, error) {
	res := openResult{lat: make([]float64, n), late: make([]float64, n)}
	workers := make([]worker, conns)
	sleepers := make([]*sleeper, conns)
	for c := range sleepers {
		s, err := newSleeper()
		if err != nil {
			return res, err
		}
		defer s.close()
		sleepers[c] = s
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var errOnce sync.Once
	var sleepErr error
	start := time.Now()
	for c := range workers {
		wg.Add(1)
		go func(w *worker, s *sleeper) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if err := s.sleep(time.Until(due)); err != nil {
					errOnce.Do(func() { sleepErr = err })
					return
				}
				sent := time.Now()
				ok := call(w, i)
				res.late[i] = ms(sent.Sub(due))
				if ok {
					res.lat[i] = ms(time.Since(due))
				} else {
					res.lat[i] = math.Inf(1)
				}
			}
		}(&workers[c], sleepers[c])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for i := range workers {
		res.t.add(workers[i].t)
	}
	return res, sleepErr
}

// latencyWindows adds the p50 and tail of each window of due-time
// latencies to ws, a window being the requests due within one window
// length at rate per second, and at least 200 of them. It reorders lat.
func (r openResult) latencyWindows(ws *windows, rate float64) {
	per := max(200, int(rate*window.Seconds()))
	for i := 0; i < len(r.lat); i += per {
		ws.latency(r.lat[i:min(i+per, len(r.lat))])
	}
}

// closedResult is a closed-loop phase.
type closedResult struct {
	ws      windows // completed operations per second, per window
	t       tally
	elapsed time.Duration
}

// closedLoop runs clients callers back to back for dur: each sends its
// next request only when the previous one has been answered. dur is cut
// into equal windows of about the window length.
func closedLoop(clients int, dur time.Duration, call caller) closedResult {
	n := max(1, int(dur/window))
	win := dur / time.Duration(n)
	done := make([]atomic.Int64, n)
	workers := make([]worker, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if call(w, i) {
					if k := int(time.Since(start) / win); k < n {
						done[k].Add(1)
					}
				}
			}
		}(&workers[c])
	}
	wg.Wait()
	res := closedResult{elapsed: time.Since(start)}
	for i := range workers {
		res.t.add(workers[i].t)
	}
	for k := range done {
		res.ws.rate(done[k].Load(), win)
	}
	return res
}
