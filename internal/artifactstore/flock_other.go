//go:build !unix

package artifactstore

import "os"

const (
	lockShared = iota
	lockExclusive
	lockRelease
)

// flock is a no-op where flock(2) does not exist: there a store
// directory is safe for one Store at a time only.
func flock(*os.File, int) error { return nil }
