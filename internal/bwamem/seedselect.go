// Optimal-Seed-Solver-inspired seed selection: when a read's SMEMs are
// collectively too frequent (repeat-dense reads whose every MEM expands
// into dozens of reference positions), pick the non-overlapping subset
// that keeps query coverage while minimizing total occurrence count, so
// the chain builder and the extension kernels downstream see the fewest
// candidate loci that still explain the read. Unique reads — the common
// case — fall under the budget and are passed through untouched, keeping
// the default pipeline behavior (and its outputs) stable.
package bwamem

import (
	"cmp"
	"slices"
	"sort"

	"seedex/internal/fmindex"
)

// SeedSelection configures the seed-selection pass.
type SeedSelection struct {
	// Enable turns selection on; zero-value SeedSelection is a no-op.
	Enable bool
	// OccBudget is the total-occurrence threshold: reads whose MEMs sum
	// to at most this many occurrences keep every MEM (selection only
	// engages on repeat-dense reads).
	OccBudget int
}

// DefaultSeedSelection enables selection with a budget that leaves
// typical unique-mapping reads untouched.
func DefaultSeedSelection() SeedSelection { return SeedSelection{Enable: true, OccBudget: 96} }

// selectMEMs returns the subset of mems chosen by the selection pass: if
// the total occurrence count is within the budget, all of them;
// otherwise the non-overlapping (in query coordinates) subset that
// maximizes query coverage and, among those, minimizes total occurrence
// count — the Optimal Seed Solver objective adapted to SMEM input. The
// returned slice aliases mems' backing array ordering (sorted by query
// end).
func selectMEMs(mems []fmindex.MEM, sel SeedSelection) []fmindex.MEM {
	if !sel.Enable || len(mems) <= 1 {
		return mems
	}
	total := 0
	for _, m := range mems {
		total += m.Occ
	}
	if total <= sel.OccBudget {
		return mems
	}
	ms := append([]fmindex.MEM(nil), mems...)
	slices.SortFunc(ms, func(a, b fmindex.MEM) int {
		return cmp.Or((a.QBeg+a.Len)-(b.QBeg+b.Len), a.QBeg-b.QBeg)
	})
	// Weighted-interval DP over query spans: value = (coverage, -occ)
	// lexicographic. dp[i] is the best over the first i MEMs; take[i]
	// marks whether MEM i-1 is chosen in its best solution.
	type val struct{ cov, occ int }
	better := func(a, b val) bool {
		if a.cov != b.cov {
			return a.cov > b.cov
		}
		return a.occ < b.occ
	}
	dp := make([]val, len(ms)+1)
	take := make([]bool, len(ms))
	prev := make([]int, len(ms))
	for i, m := range ms {
		// prev[i]: number of MEMs (prefix length) fully left of m.
		p := sort.Search(i, func(j int) bool { return ms[j].QBeg+ms[j].Len > m.QBeg })
		prev[i] = p
		with := val{dp[p].cov + m.Len, dp[p].occ + m.Occ}
		if better(with, dp[i]) {
			dp[i+1] = with
			take[i] = true
		} else {
			dp[i+1] = dp[i]
		}
	}
	var out []fmindex.MEM
	for i := len(ms); i > 0; {
		if take[i-1] {
			out = append(out, ms[i-1])
			i = prev[i-1]
		} else {
			i--
		}
	}
	if len(out) == 0 {
		return mems
	}
	// Restore query order (reconstruction walked right to left).
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}
