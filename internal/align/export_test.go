package align

import "testing"

// forcePortable runs the rest of t on the pure-Go SWAR ladder, as on a
// host without the native tier. Tests that use it must not run in
// parallel with other batch tests.
func forcePortable(t testing.TB) {
	live := native16Live
	native16Live = false
	t.Cleanup(func() { native16Live = live })
}
