package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seedex/internal/bwamem"
	"seedex/internal/fastx"
	"seedex/internal/genome"
	"seedex/internal/readsim"
	"seedex/internal/refstore"
)

// writeWorld writes a FASTA reference and FASTQ reads into dir.
func writeWorld(t *testing.T, dir string, nReads int) (refPath, readsPath string) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ref := genome.Simulate(genome.SimConfig{Length: 40_000}, rng)
	reads := readsim.Simulate(ref, readsim.DefaultConfig(nReads), rng)

	refPath = filepath.Join(dir, "ref.fa")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := fastx.WriteFasta(rf, []fastx.FastaRecord{{Name: "chrT", Seq: []byte(genome.Decode(ref))}}); err != nil {
		t.Fatal(err)
	}
	rf.Close()

	readsPath = filepath.Join(dir, "reads.fq")
	qf, err := os.Create(readsPath)
	if err != nil {
		t.Fatal(err)
	}
	fq := make([]fastx.FastqRecord, len(reads))
	for i, r := range reads {
		fq[i] = fastx.FastqRecord{Name: r.ID, Seq: []byte(genome.Decode(r.Seq)), Qual: r.Qual}
	}
	if err := fastx.WriteFastq(qf, fq); err != nil {
		t.Fatal(err)
	}
	qf.Close()
	return
}

func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath := writeWorld(t, dir, 60)

	var samSeedEx, samFull, stderr bytes.Buffer
	if err := run([]string{"-ref", refPath, "-reads", readsPath, "-extender", "seedex", "-band", "20"}, &samSeedEx, &stderr); err != nil {
		t.Fatalf("seedex run: %v (%s)", err, stderr.String())
	}
	if err := run([]string{"-ref", refPath, "-reads", readsPath, "-extender", "fullband"}, &samFull, &stderr); err != nil {
		t.Fatalf("fullband run: %v", err)
	}
	if samSeedEx.String() != samFull.String() {
		t.Fatal("CLI SAM output differs between seedex and fullband engines")
	}
	lines := strings.Split(strings.TrimSpace(samSeedEx.String()), "\n")
	if !strings.HasPrefix(lines[0], "@HD") {
		t.Fatalf("missing SAM header: %q", lines[0])
	}
	body := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "@") {
			body++
			if len(strings.Split(l, "\t")) < 11 {
				t.Fatalf("malformed SAM line: %q", l)
			}
		}
	}
	if body != 60 {
		t.Fatalf("expected 60 alignment lines, got %d", body)
	}
	if !strings.Contains(stderr.String(), "aligned") {
		t.Fatalf("stats not printed: %q", stderr.String())
	}
}

func TestCLIERTSeeder(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath := writeWorld(t, dir, 20)
	var out, stderr bytes.Buffer
	if err := run([]string{"-ref", refPath, "-reads", readsPath, "-seeder", "ert", "-extender", "banded", "-band", "5"}, &out, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chrT") {
		t.Fatal("no alignments produced with ERT seeding")
	}
}

func TestCLIErrors(t *testing.T) {
	var out, stderr bytes.Buffer
	if err := run(nil, &out, &stderr); err == nil {
		t.Fatal("missing required flags must error")
	}
	if err := run([]string{"-ref", "nope.fa", "-reads", "nope.fq"}, &out, &stderr); err == nil {
		t.Fatal("missing files must error")
	}
	dir := t.TempDir()
	refPath, readsPath := writeWorld(t, dir, 1)
	err := run([]string{"-ref", refPath, "-reads", readsPath, "-extender", "bogus"}, &out, &stderr)
	if err == nil {
		t.Fatal("unknown extender must error")
	}
	for _, want := range []string{`"bogus"`, "seedex", "fullband", "banded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-extender error %q does not name %q", err, want)
		}
	}
	if err := run([]string{"-ref", refPath, "-reads", readsPath, "-seeder", "bogus"}, &out, &stderr); err == nil {
		t.Fatal("unknown seeder must error")
	}
	if err := run([]string{"-ref", refPath, "-reads", readsPath, "-band", "-3"}, &out, &stderr); err == nil || !strings.Contains(err.Error(), "band -3") {
		t.Fatalf("negative -band must error naming the band, got %v", err)
	}
}

// TestCLIIndexRoundTrip holds -index to the one container format: the
// file it saves is a valid container, a container published the way
// seedex-index build does it loads, SAM is byte-identical without an
// index, building one and loading one, and an index of another FASTA is
// refused.
func TestCLIIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath := writeWorld(t, dir, 30)
	idxPath := filepath.Join(dir, "ref.rix")
	align := func(stderr *bytes.Buffer, extra ...string) string {
		t.Helper()
		var out bytes.Buffer
		stderr.Reset()
		args := append([]string{"-ref", refPath, "-reads", readsPath, "-extender", "fullband"}, extra...)
		if err := run(args, &out, stderr); err != nil {
			t.Fatalf("%v: %v (%s)", extra, err, stderr)
		}
		return out.String()
	}

	var stderr bytes.Buffer
	plain := align(&stderr)
	if built := align(&stderr, "-index", idxPath); !strings.Contains(stderr.String(), "built and saved index") {
		t.Fatalf("index not built: %s", stderr.String())
	} else if built != plain {
		t.Fatal("SAM differs between no-index and build-and-save runs")
	}
	if _, err := refstore.Verify(idxPath); err != nil {
		t.Fatalf("saved index is not a valid container: %v", err)
	}
	if loaded := align(&stderr, "-index", idxPath); !strings.Contains(stderr.String(), "loaded index") {
		t.Fatalf("index not loaded: %s", stderr.String())
	} else if loaded != plain {
		t.Fatal("SAM differs between no-index and loaded-index runs")
	}

	// A container published the way seedex-index build publishes it.
	rf, err := os.Open(refPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fastx.ReadFasta(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	ref, ix, err := bwamem.BuildIndex([]bwamem.Contig{{Name: recs[0].Name, Seq: genome.Encode(string(recs[0].Seq))}})
	if err != nil {
		t.Fatal(err)
	}
	built := filepath.Join(dir, "built.rix")
	if _, err := refstore.WriteFile(built, ref, ix); err != nil {
		t.Fatal(err)
	}
	if loaded := align(&stderr, "-index", built); !strings.Contains(stderr.String(), "loaded index") {
		t.Fatalf("published container not loaded: %s", stderr.String())
	} else if loaded != plain {
		t.Fatal("SAM differs between no-index and published-container runs")
	}

	// An index of one FASTA with -ref naming another: the SAM header would
	// come from one and the records from the other, so it is refused.
	otherPath := filepath.Join(dir, "other.fa")
	if err := os.WriteFile(otherPath, []byte(">other_contig\n"+string(recs[0].Seq)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-ref", otherPath, "-reads", readsPath, "-index", idxPath}, io.Discard, &stderr)
	if err == nil {
		t.Fatal("index of another FASTA accepted")
	}
	for _, want := range []string{idxPath, otherPath, "chrT", "other_contig"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error %q does not name %q", err, want)
		}
	}
}

// writePairWorld writes ref as a FASTA and the mates of pairs as two
// FASTQ files into dir.
func writePairWorld(t *testing.T, dir string, ref []byte, pairs []bwamem.ReadPair) (refPath, r1, r2 string) {
	t.Helper()
	refPath = filepath.Join(dir, "ref.fa")
	rf, _ := os.Create(refPath)
	if err := fastx.WriteFasta(rf, []fastx.FastaRecord{{Name: "chrT", Seq: []byte(genome.Decode(ref))}}); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	write := func(name string, second bool) string {
		p := filepath.Join(dir, name)
		f, _ := os.Create(p)
		var fq []fastx.FastqRecord
		for _, pr := range pairs {
			seq := pr.Seq1
			if second {
				seq = pr.Seq2
			}
			qual := make([]byte, len(seq))
			for i := range qual {
				qual[i] = 'I'
			}
			fq = append(fq, fastx.FastqRecord{Name: pr.Name, Seq: []byte(genome.Decode(seq)), Qual: qual})
		}
		if err := fastx.WriteFastq(f, fq); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return p
	}
	return refPath, write("r1.fq", false), write("r2.fq", true)
}

func TestCLIPairedEnd(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	ref := genome.Simulate(genome.SimConfig{Length: 50_000}, rng)
	pairs, _ := bwamem.SimulatePairs(ref, 40, 101, 350, 40, 0.002, rng)
	refPath, r1, r2 := writePairWorld(t, dir, ref, pairs)

	var out, stderr bytes.Buffer
	if err := run([]string{"-ref", refPath, "-reads", r1, "-reads2", r2, "-extender", "seedex"}, &out, &stderr); err != nil {
		t.Fatalf("%v (%s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "proper pairs") {
		t.Fatalf("paired stats missing: %s", stderr.String())
	}
	body := 0
	proper := 0
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.HasPrefix(l, "@") {
			continue
		}
		body++
		fields := strings.Split(l, "\t")
		var flag int
		fmt.Sscan(fields[1], &flag)
		if flag&0x1 == 0 {
			t.Fatalf("unpaired flag in paired mode: %s", l)
		}
		if flag&0x2 != 0 {
			proper++
		}
	}
	if body != 2*len(pairs) {
		t.Fatalf("expected %d records, got %d", 2*len(pairs), body)
	}
	if proper < body*8/10 {
		t.Fatalf("only %d/%d proper-pair records", proper, body)
	}
}

// TestPairedSAMIdentity is the paired-end half of make sam-identity:
// mates generated as TestCLIPairedEnd generates them, at its error rate
// and an error-heavy one, map to byte-identical SAM under strict SeedEx
// and under the full band.
func TestPairedSAMIdentity(t *testing.T) {
	for _, errRate := range []float64{0.002, 0.01} {
		dir := t.TempDir()
		rng := rand.New(rand.NewSource(32))
		ref := genome.Simulate(genome.SimConfig{Length: 100_000}, rng)
		pairs, _ := bwamem.SimulatePairs(ref, 300, 150, 350, 40, errRate, rng)
		refPath, r1, r2 := writePairWorld(t, dir, ref, pairs)
		var sams [2]string
		for i, ext := range []string{"seedex", "fullband"} {
			var out, stderr bytes.Buffer
			if err := run([]string{"-ref", refPath, "-reads", r1, "-reads2", r2, "-extender", ext}, &out, &stderr); err != nil {
				t.Fatalf("%s: %v (%s)", ext, err, stderr.String())
			}
			sams[i] = out.String()
		}
		if sams[0] != sams[1] {
			t.Fatalf("error rate %v: seedex and fullband paired-end SAM differ", errRate)
		}
		if n := strings.Count(sams[0], "\n"); n < 2*len(pairs) {
			t.Fatalf("error rate %v: %d SAM lines for %d pairs", errRate, n, len(pairs))
		}
	}
}
