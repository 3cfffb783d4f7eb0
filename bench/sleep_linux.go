//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits on a timerfd registered with the Go netpoller. time.Sleep
// parks on a runtime timer, and an otherwise idle process wakes for those
// only at epoll_wait's millisecond granularity: on this benchmark's open
// loop that made the generator ~0.5 ms late at the median, more than the
// routed-hit request itself takes. A timerfd becomes readable on time and
// wakes the poller directly (measured ~16 µs late at the median).
type sleeper struct {
	f  *os.File
	fd uintptr // kept apart: os.File.Fd would switch the fd to blocking mode
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep waits for d; a non-positive d returns at once.
func (s *sleeper) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: a zero interval (one shot), then the relative value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }
