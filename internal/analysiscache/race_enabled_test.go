//go:build race

package analysiscache_test

// raceEnabled gates allocation-count assertions: under -race, sync.Pool
// drops pooled buffers at random, so the count is not the program's.
const raceEnabled = true
