//go:build race

package core

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates, so zero-alloc tests are meaningless (and
// false-failing) under -race.
const raceEnabled = true
