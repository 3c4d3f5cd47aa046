package router

import "testing"

// LowerMaxBodyBytes lowers the router's body limit to n until t ends, for
// tests outside the package.
func LowerMaxBodyBytes(t testing.TB, n int64) {
	old := maxBodyBytes
	maxBodyBytes = n
	t.Cleanup(func() { maxBodyBytes = old })
}
