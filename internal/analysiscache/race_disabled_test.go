//go:build !race

package analysiscache_test

const raceEnabled = false
