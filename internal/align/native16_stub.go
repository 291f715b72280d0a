//go:build !amd64 || purego

package align

// No native tier on this build: the pure-Go SWAR ladder is the batch path.
var native16ISA = "none"

// sweepRow is never reached: the tier ladder admits no job to the native
// tier while native16ISA is "none".
func sweepRow(*col16, int, *vec16, *sweepState) {
	panic("align: native kernel called on a build without it")
}
