package fmindex

import (
	"math/rand"
	"testing"
)

// scanOcc is the occurrence table as it was before the masks: the BWT
// bytes, a count of all six symbols every occRate rows, and occAt as a
// checkpoint plus a byte scan of up to occRate-1 rows.
type scanOcc struct {
	bwt []byte
	occ [][sigma]int32
}

func newScanOcc(text []byte, sa []int32) scanOcc {
	n := len(text)
	bwt := make([]byte, n+1)
	if n > 0 {
		bwt[0] = text[n-1] + 1
	}
	for i, p := range sa {
		if p == 0 {
			bwt[i+1] = 0 // sentinel
		} else {
			bwt[i+1] = text[p-1] + 1
		}
	}
	occ := make([][sigma]int32, len(bwt)/occRate+1)
	var run [sigma]int32
	for i, b := range bwt {
		if i%occRate == 0 {
			occ[i/occRate] = run
		}
		run[b]++
	}
	if len(bwt)%occRate == 0 {
		occ[len(bwt)/occRate] = run
	}
	return scanOcc{bwt, occ}
}

func (s scanOcc) occAt(b byte, i int32) int32 {
	cp := int(i) / occRate
	n := s.occ[cp][b]
	for k := cp * occRate; k < int(i); k++ {
		if s.bwt[k] == b {
			n++
		}
	}
	return n
}

// checkOccIdentity compares the popcount table with the scan for every
// symbol (sentinel and separator included) at every row boundary,
// i = len(bwt) included.
func checkOccIdentity(t *testing.T, text []byte) {
	t.Helper()
	ix, err := New(text)
	if err != nil {
		t.Fatal(err)
	}
	ref := newScanOcc(text, ix.sa)
	if int(ix.rows) != len(ref.bwt) {
		t.Fatalf("text length %d: %d rows, want %d", len(text), ix.rows, len(ref.bwt))
	}
	for i := int32(0); i <= ix.rows; i++ {
		for b := byte(0); b < sigma; b++ {
			if got, want := ix.occAt(b, i), ref.occAt(b, i); got != want {
				t.Fatalf("text length %d: occAt(%d, %d) = %d, scan says %d", len(text), b, i, got, want)
			}
		}
	}
}

// TestOccAtIdentity runs the identity on BWT lengths around the block
// size (text length + 1 rows) and on the index shapes of the sweep tests,
// the Separator-padded contigs among them.
func TestOccAtIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 2, 62, 63, 64, 65, 127, 128, 129, 1000} {
		checkOccIdentity(t, randSeq(rng, n))
		sep := randSeq(rng, n)
		for i := range sep {
			if rng.Intn(4) == 0 {
				sep[i] = Separator
			}
		}
		checkOccIdentity(t, sep)
	}
	for _, text := range sweepTexts(rng) {
		checkOccIdentity(t, text.seq)
	}
}

// FuzzOccAt is the same identity over raw bytes folded onto codes 0..4.
func FuzzOccAt(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACCA"))
	f.Add([]byte{})
	f.Add([]byte{4, 4, 0, 4})
	f.Add(make([]byte, 63))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 2048 {
			return
		}
		text := make([]byte, len(raw))
		for i, b := range raw {
			text[i] = b % 5
		}
		checkOccIdentity(t, text)
	})
}
