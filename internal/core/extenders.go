package core

import (
	"fmt"
	"strings"

	"seedex/internal/align"
)

// Extender engine names shared by every front-end (seedex-align,
// seedex-serve, the bench harness) so the valid set and the construction
// logic live in exactly one place.
const (
	ExtenderSeedEx   = "seedex"
	ExtenderFullBand = "fullband"
	ExtenderBanded   = "banded"
)

// ExtenderNames returns the valid engine names in display order.
func ExtenderNames() []string {
	return []string{ExtenderSeedEx, ExtenderFullBand, ExtenderBanded}
}

// ValidateBand rejects band widths no front-end should accept: with a band
// below 1 every extension fails the S1 threshold and silently reruns
// full-band.
func ValidateBand(band int) error {
	if band < 1 {
		return fmt.Errorf("band %d out of range (valid: 1 or more)", band)
	}
	return nil
}

// NamedExtender constructs the extension engine selected by name with
// BWA-MEM default scoring: the SeedEx speculative extender (with fresh
// Stats), the full-band reference, or the plain banded heuristic. An
// unknown name yields an error listing the valid set, a band below 1 an
// error naming the valid range (for every engine: the band is one shared
// flag at the front-ends). The returned
// extender always implements align.BatchExtender and
// align.SessionExtender; callers wanting the SeedEx check statistics can
// type-assert to *SeedEx.
func NamedExtender(name string, band int) (align.Extender, error) {
	if err := ValidateBand(band); err != nil {
		return nil, err
	}
	switch name {
	case ExtenderSeedEx:
		return New(band), nil
	case ExtenderFullBand:
		return FullBand{Scoring: align.DefaultScoring()}, nil
	case ExtenderBanded:
		return Banded{Scoring: align.DefaultScoring(), Band: band}, nil
	}
	return nil, fmt.Errorf("unknown extender %q (valid: %s)", name, strings.Join(ExtenderNames(), ", "))
}
