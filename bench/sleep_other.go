//go:build !linux

package main

import "time"

// sleeper falls back to time.Sleep where there is no timerfd; the open
// loop's generator then runs up to a timer tick late, which
// loadgen.late_p99_ms shows.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (*sleeper) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (*sleeper) close() {}
