package refstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seedex/internal/bwamem"
	"seedex/internal/fmindex"
	"seedex/internal/genome"
)

// buildFixture makes a small two-contig reference and its index.
func buildFixture(t testing.TB, seed int64, length int) (*bwamem.Reference, *fmindex.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c1 := genome.Simulate(genome.SimConfig{Length: length}, rng)
	c2 := genome.Simulate(genome.SimConfig{Length: length / 2}, rng)
	ref, ix, err := bwamem.BuildIndex([]bwamem.Contig{{Name: "chrA", Seq: c1}, {Name: "chrB", Seq: c2}})
	if err != nil {
		t.Fatal(err)
	}
	return ref, ix
}

// writeFixture publishes the fixture as a container file and returns
// its path.
func writeFixture(t testing.TB, seed int64, length int) (string, *bwamem.Reference, *fmindex.Index) {
	t.Helper()
	ref, ix, path := fixtureAt(t, t.TempDir(), seed, length)
	return path, ref, ix
}

func fixtureAt(t testing.TB, dir string, seed int64, length int) (*bwamem.Reference, *fmindex.Index, string) {
	t.Helper()
	path := filepath.Join(dir, "ref.rix")
	ref, ix := buildFixture(t, seed, length)
	if _, err := WriteFile(path, ref, ix); err != nil {
		t.Fatal(err)
	}
	return ref, ix, path
}

func sameReference(a, b *bwamem.Reference) bool {
	if len(a.Names) != len(b.Names) || !bytes.Equal(a.Cat, b.Cat) {
		return false
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] || a.Offsets[i] != b.Offsets[i] || a.Lengths[i] != b.Lengths[i] {
			return false
		}
	}
	return true
}

func sameIndex(a, b *fmindex.Index) bool {
	if a.Len() != b.Len() || !bytes.Equal(a.Text(), b.Text()) {
		return false
	}
	sa, sb := a.SA(), b.SA()
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

func TestContainerRoundTrip(t *testing.T) {
	ref, ix := buildFixture(t, 1, 4000)
	var buf bytes.Buffer
	info, err := Encode(&buf, ref, ix, time.Unix(123, 456))
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != info.FileBytes {
		t.Fatalf("encoded %d bytes, info declares %d", buf.Len(), info.FileBytes)
	}
	ref2, ix2, info2, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !sameReference(ref, ref2) {
		t.Fatal("reference did not round-trip")
	}
	if !sameIndex(ix, ix2) {
		t.Fatal("index did not round-trip")
	}
	if info2.Contigs != 2 || !info2.BuildTime.Equal(time.Unix(123, 456)) {
		t.Fatalf("info did not round-trip: %+v", info2)
	}
	if info2.TextCRC != info.TextCRC || info2.SACRC != info.SACRC {
		t.Fatalf("checksums diverged between encode and decode: %+v vs %+v", info, info2)
	}

	// Decoded behavior matches the freshly built index.
	q := ix.Text()[100:148]
	iva, ivb := ix.Count(q), ix2.Count(q)
	if iva != ivb {
		t.Fatalf("Count diverged: %+v vs %+v", iva, ivb)
	}
}

func TestWriteFileAtomicPublish(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ref.rix")
	ref, ix := buildFixture(t, 2, 3000)
	info, err := WriteFile(path, ref, ix)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != info.FileBytes {
		t.Fatalf("file is %d bytes, info declares %d", st.Size(), info.FileBytes)
	}
	// No temp debris survives publication.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ref.rix" {
		t.Fatalf("directory not clean after publish: %v", entries)
	}
	if _, err := Verify(path); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsCorruption flips bytes across every region of the
// container — header fields, header CRC, each section, the final byte —
// and requires every damaged image to be rejected. None may panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	ref, ix := buildFixture(t, 3, 2000)
	var buf bytes.Buffer
	if _, err := Encode(&buf, ref, ix, time.Now()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, _, _, err := Decode(good); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}

	offsets := []int{
		0,          // magic
		8,          // version
		16,         // file size
		32, 52, 72, // section descriptors
		92,              // header CRC
		headerBytes + 2, // contig table
	}
	// One byte inside each data section and the last byte of the file.
	textOff := int(getSection(good, 52).off)
	saOff := int(getSection(good, 72).off)
	offsets = append(offsets, textOff+17, saOff+33, len(good)-1)

	for _, off := range offsets {
		bad := bytes.Clone(good)
		bad[off] ^= 0x01
		if _, _, _, err := Decode(bad); err == nil {
			t.Errorf("corruption at offset %d accepted", off)
		}
	}

	for _, cut := range []int{0, 1, headerBytes - 1, headerBytes, len(good) / 2, len(good) - 1} {
		if _, _, _, err := Decode(good[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}

	// Grown files are rejected too (size embedded in the header).
	if _, _, _, err := Decode(append(bytes.Clone(good), 0)); err == nil {
		t.Error("grown file accepted")
	}

	// No byte goes unchecked: every single-bit flip at every offset,
	// the alignment padding between sections included, is rejected.
	t.Run("every-bit", func(t *testing.T) {
		bad := bytes.Clone(good)
		for off := range bad {
			for bit := 0; bit < 8; bit++ {
				bad[off] ^= 1 << bit
				if _, _, _, err := Decode(bad); err == nil {
					t.Errorf("flip of bit %d at offset %d accepted", bit, off)
				}
				bad[off] ^= 1 << bit
			}
		}
	})
}

func TestVerifyErrors(t *testing.T) {
	if _, err := Verify(filepath.Join(t.TempDir(), "nope.rix")); err == nil {
		t.Fatal("missing file verified")
	}
	p := filepath.Join(t.TempDir(), "junk.rix")
	if err := os.WriteFile(p, []byte("not an index at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(p); err == nil {
		t.Fatal("junk file verified")
	}
}
