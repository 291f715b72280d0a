package core

// Internals shared with the external test package (closedform_test.go,
// engine_test.go), which has to live outside package core to harvest real
// extension problems through internal/bwamem without an import cycle.
var (
	SameResult      = sameResult
	RealisticCase   = realisticCase
	AdversarialCase = adversarialCase
	AdversarialSeqs = adversarialSeqs
	CorruptedCase   = corruptedCase
	FuzzBand        = fuzzBand
	BelowBound      = belowBound

	CheckPaperSweepRef = checkPaperSweepRef
	SamePaperVerdict   = samePaperVerdict
)
