//go:build unix

package artifactstore

import (
	"os"
	"syscall"
)

const (
	lockShared    = syscall.LOCK_SH
	lockExclusive = syscall.LOCK_EX
	lockRelease   = syscall.LOCK_UN
)

// flock applies flock(2) operation how to f, waiting for a conflicting
// lock to go. The lock belongs to f's open file description, so two
// Stores in one process exclude each other like two processes do.
func flock(f *os.File, how int) error {
	for {
		if err := syscall.Flock(int(f.Fd()), how); err != syscall.EINTR {
			return err
		}
	}
}
