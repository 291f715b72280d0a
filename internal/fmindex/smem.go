package fmindex

// MEM is a maximal exact match between a query and the indexed text.
type MEM struct {
	QBeg, Len int   // query span [QBeg, QBeg+Len)
	Positions []int // forward-strand text positions of the occurrences (capped)
	// RCPositions are reverse-strand hits (filled by the bidirectional
	// FMD search only): text positions where the reverse complement of
	// the matched query segment occurs.
	RCPositions []int
	// Occ is the total occurrence count before capping — forward-only
	// for the suffix-array search, both strands for the FMD search.
	Occ int
}

// SMEMConfig controls SMEM generation.
type SMEMConfig struct {
	// MinLen discards matches shorter than this (BWA-MEM: 19).
	MinLen int
	// MaxOcc caps the occurrences reported per SMEM (BWA-MEM: ~500;
	// highly repetitive seeds are down-sampled).
	MaxOcc int
}

// DefaultSMEMConfig mirrors BWA-MEM's defaults.
func DefaultSMEMConfig() SMEMConfig { return SMEMConfig{MinLen: 19, MaxOcc: 50} }

// SMEMs computes the supermaximal exact matches of q against the index:
// maximal matches not contained in any other maximal match of the query —
// the seed set BWA-MEM's bidirectional SMEM walk generates.
//
// Write end(s) for s plus the length of the longest match starting at s
// (LongestMatch: right-maximal by construction). The SMEMs are the starts
// whose end(s) exceeds every earlier end — left-maximality is that
// containment filter — and whose length reaches MinLen. Evaluating end(s)
// at every base costs three suffix-array binary searches per base to
// report a handful of seeds, so the sweep skips the starts that cannot
// emit, resting on five facts (proofs in DESIGN.md §6j):
//
//	(a) end(s) is non-decreasing in s: dropping the first base of a
//	    match leaves a match.
//	(b) A match shorter than MinLen never suppresses one of at least
//	    MinLen, since it would have to contain it; so starts whose window
//	    q[s:s+MinLen) does not occur are skipped with no bookkeeping.
//	(c) Occurrence of q[a:b) is monotone in a: if q[p:b) is absent, so is
//	    q[a:b) for every a <= p.
//	(d) The interval of the window q[s:s+MinLen) holds every suffix that
//	    shares at least MinLen bases with q[s:], so the longest match from
//	    s and its interval are found inside it.
//	(e) A jump-table entry is the interval a backward search holds after
//	    the last k bases of its pattern, so a window starts from there.
//
// Per maximal run of unambiguous bases: the window at s is tested by
// backward search from its right end; if q[p:s+MinLen) is the first empty
// interval, no window starting in [s,p] occurs (c) and the sweep resumes
// at p+1 (b). If the window occurs, one longest-match search inside its
// interval (d) — a single comparison when that is one row, the common
// case — gives the exact length and interval, emitted when its end is a
// new maximum. The next start follows from a backward search leftwards
// from q[end]: with q[p:end+1) the first empty interval, every start in
// (s,p] has end(·) <= end by (c) and >= end by (a), so it is contained —
// resume at p+1. In non-matching sequence (the whole wrong strand) that is
// a step or two past the table's k (e) per window. A MinLen below 1
// behaves as 1.
func (ix *Index) SMEMs(q []byte, cfg SMEMConfig) []MEM {
	minLen := max(cfg.MinLen, 1)
	var mems []MEM
	bestEnd := -1 // furthest match end seen so far; containment filter
	for s := 0; s < len(q); {
		if q[s] > 3 { // ambiguous base: no exact match crosses it
			s++
			continue
		}
		// Matches must stop at the next ambiguous base: codes >= 4 never
		// match, even where the indexed text contains the separator code.
		limit := s
		for limit < len(q) && q[limit] <= 3 {
			limit++
		}
		for s+minLen <= limit {
			p, win := ix.firstAbsent(q, s, s+minLen)
			if p >= s {
				s = p + 1
				continue
			}
			// A non-empty pattern's interval starts past the sentinel's
			// row 0: row r of it is ix.sa[r-1].
			l, iv := ix.longestMatchIn(q[s:limit], Interval{win.Lo - 1, win.Hi - 1})
			end := s + l
			if end > bestEnd {
				bestEnd = end
				mems = append(mems, MEM{
					QBeg:      s,
					Len:       l,
					Positions: ix.LocateRaw(iv, cfg.MaxOcc),
					Occ:       iv.Size(),
				})
			}
			if end == limit {
				break // every later start of the run ends here too
			}
			p, _ = ix.firstAbsent(q, s+1, end+1)
			s = p + 1
		}
		s = limit
	}
	return mems
}

// firstAbsent backward-searches q[lo:hi) from its right end and returns
// the largest p in [lo,hi) for which q[p:hi) does not occur in the text,
// or lo-1 and the interval of q[lo:hi) when all of it occurs. The search
// starts from the jump-table entry of the last jumpK bases when the
// pattern has that many and they occur; when they do not, p lies among
// them and the search from the empty pattern finds it. Bases must be
// codes 0..3.
func (ix *Index) firstAbsent(q []byte, lo, hi int) (int, Interval) {
	iv, p := Interval{0, ix.rows}, hi-1
	if k := ix.jumpK; hi-lo >= k {
		code := 0
		for _, b := range q[hi-k : hi] {
			code = code<<2 | int(b)
		}
		if jv := ix.jump[code]; jv.Size() > 0 {
			iv, p = jv, hi-k-1
		}
	}
	from := p
	for p >= lo {
		if iv = ix.Backward(iv, q[p]); iv.Size() <= 0 {
			break
		}
		p--
	}
	if smemProbe != nil {
		smemProbe.lfSteps += from - p
		if p >= lo {
			smemProbe.lfSteps++ // the step that emptied the interval
		}
	}
	return p, iv
}

// smemProbe, when set, counts the sweep's work: Backward steps, longest-
// match searches, and those of them that searched the whole suffix array.
// Only tests set it.
var smemProbe *smemCounts

type smemCounts struct{ lfSteps, longestMatches, wholeArray int }
