//go:build race

package serve_test

// raceEnabled reports a -race build, where sync.Pool drops a share of what
// is put back on purpose, so allocation counts of pooled paths are not the
// product's.
const raceEnabled = true
