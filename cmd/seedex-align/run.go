package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/ert"
	"seedex/internal/fastx"
	"seedex/internal/fmindex"
	"seedex/internal/genome"
	"seedex/internal/refstore"
	"seedex/internal/sam"
)

// run is the testable CLI body; main wires it to os streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("seedex-align", flag.ContinueOnError)
	fs.SetOutput(stderr)
	refPath := fs.String("ref", "", "reference FASTA (required)")
	readsPath := fs.String("reads", "", "reads FASTQ (required)")
	reads2Path := fs.String("reads2", "", "mate FASTQ (enables paired-end mode)")
	extName := fs.String("extender", "seedex", "extension engine: seedex | fullband | banded")
	band := fs.Int("band", 20, "one-sided band (SeedEx and banded engines)")
	seeder := fs.String("seeder", "fm", "seeding engine: fm (suffix-array SMEM) | fmd (bidirectional SMEM) | ert (radix tree)")
	indexPath := fs.String("index", "", "index container (the format seedex-index build writes): loaded if it exists, otherwise built from -ref and published")
	workers := fs.Int("workers", 0, "alignment workers (0 = GOMAXPROCS)")
	statsOut := fs.Bool("stats", true, "print check statistics to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *readsPath == "" {
		fs.Usage()
		return fmt.Errorf("-ref and -reads are required")
	}

	rf, err := os.Open(*refPath)
	if err != nil {
		return err
	}
	refs, err := fastx.ReadFasta(rf)
	rf.Close()
	if err != nil {
		return err
	}
	if len(refs) == 0 {
		return fmt.Errorf("no sequences in %s", *refPath)
	}
	contigs := make([]bwamem.Contig, len(refs))
	for i, r := range refs {
		contigs[i] = bwamem.Contig{Name: r.Name, Seq: genome.Encode(string(r.Seq))}
	}

	qf, err := os.Open(*readsPath)
	if err != nil {
		return err
	}
	fq, err := fastx.ReadFastq(qf)
	qf.Close()
	if err != nil {
		return err
	}

	ext, err := core.NamedExtender(*extName, *band)
	if err != nil {
		return err
	}
	se, _ := ext.(*core.SeedEx)

	var a *bwamem.Aligner
	if *indexPath != "" {
		ref, ix, release, err := loadOrBuildIndex(*indexPath, *refPath, contigs, stderr)
		if err != nil {
			return err
		}
		defer release()
		a = bwamem.NewWithIndex(ref, ix, ext)
	} else if a, err = bwamem.NewMulti(contigs, ext); err != nil {
		return err
	}
	if *extName == "banded" {
		a.Opts.TraceBand = *band
	}
	switch *seeder {
	case "fm":
	case "fmd":
		fmd, err := fmindex.NewFMD(append([]byte(nil), a.Ref...))
		if err != nil {
			return err
		}
		a.Seeder = bwamem.FMDSeeder{Index: fmd, Cfg: fmindex.DefaultSMEMConfig()}
	case "ert":
		a.Seeder = bwamem.ERTSeeder{Index: ert.Build(a.Ref, ert.K), Cfg: ert.DefaultConfig()}
	default:
		return fmt.Errorf("unknown seeder %q", *seeder)
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprint(w, sam.HeaderMulti(a.Contigs.Names, a.Contigs.Lengths, "seedex-align"))

	if *reads2Path != "" {
		qf2, err := os.Open(*reads2Path)
		if err != nil {
			return err
		}
		fq2, err := fastx.ReadFastq(qf2)
		qf2.Close()
		if err != nil {
			return err
		}
		if len(fq2) != len(fq) {
			return fmt.Errorf("paired inputs differ in length: %d vs %d reads", len(fq), len(fq2))
		}
		pairs := make([]bwamem.ReadPair, len(fq))
		for i := range fq {
			pairs[i] = bwamem.ReadPair{
				Name: fq[i].Name,
				Seq1: genome.Encode(string(fq[i].Seq)), Qual1: fq[i].Qual,
				Seq2: genome.Encode(string(fq2[i].Seq)), Qual2: fq2[i].Qual,
			}
		}
		recs, pst := a.RunPairs(pairs, *workers)
		for _, rec := range recs {
			fmt.Fprintln(w, rec.String())
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if *statsOut {
			fmt.Fprintf(stderr, "paired %d fragments: %d proper pairs, insert %.0f±%.0f, %d extensions\n",
				pst.Pairs, pst.ProperPairs, pst.Insert.Mean, pst.Insert.Std, pst.Extensions)
			if se != nil {
				fmt.Fprintln(stderr, se.Stats)
			}
		}
		return nil
	}

	reads := make([]bwamem.Read, len(fq))
	for i, r := range fq {
		reads[i] = bwamem.Read{Name: r.Name, Seq: genome.Encode(string(r.Seq)), Qual: r.Qual}
	}
	recs, stats := a.Run(reads, *workers)
	for _, rec := range recs {
		fmt.Fprintln(w, rec.String())
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if *statsOut {
		fmt.Fprintf(stderr, "aligned %d/%d reads, %d extensions; seeding %.1f ms, extension %.1f ms, rest %.1f ms\n",
			stats.Mapped, stats.Reads, stats.Extensions,
			float64(stats.SeedingNs)/1e6, float64(stats.ExtensionNs)/1e6, float64(stats.RestNs)/1e6)
		if se != nil {
			fmt.Fprintln(stderr, se.Stats)
		}
	}
	return nil
}

// loadOrBuildIndex loads the container at indexPath when it exists,
// refusing one whose contig table differs from the FASTA's, and otherwise
// builds the index from contigs and publishes it there atomically. A
// loaded index stays mapped until release is called.
func loadOrBuildIndex(indexPath, refPath string, contigs []bwamem.Contig, stderr io.Writer) (*bwamem.Reference, *fmindex.Index, func(), error) {
	if _, err := os.Stat(indexPath); errors.Is(err, os.ErrNotExist) {
		ref, ix, err := bwamem.BuildIndex(contigs)
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := refstore.WriteFile(indexPath, ref, ix); err != nil {
			return nil, nil, nil, fmt.Errorf("saving %s: %w", indexPath, err)
		}
		fmt.Fprintf(stderr, "built and saved index %s\n", indexPath)
		return ref, ix, func() {}, nil
	}
	store, err := refstore.Open(indexPath, refstore.Options{})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loading %s: %w", indexPath, err)
	}
	g := store.Acquire()
	release := func() {
		g.Release()
		store.Close()
	}
	if err := sameContigs(g.Ref(), contigs); err != nil {
		release()
		return nil, nil, nil, fmt.Errorf("index %s was not built from %s: %w", indexPath, refPath, err)
	}
	fmt.Fprintf(stderr, "loaded index %s (%d contigs)\n", indexPath, len(g.Ref().Names))
	return g.Ref(), g.Index(), release, nil
}

// sameContigs reports the first contig whose name or length differs
// between an index's contig table and the FASTA's records.
func sameContigs(ref *bwamem.Reference, contigs []bwamem.Contig) error {
	if len(ref.Names) != len(contigs) {
		return fmt.Errorf("it holds %d contigs, the FASTA %d", len(ref.Names), len(contigs))
	}
	for i, c := range contigs {
		if ref.Names[i] != c.Name || ref.Lengths[i] != len(c.Seq) {
			return fmt.Errorf("contig %d is %s (%d bp) in the index, %s (%d bp) in the FASTA",
				i+1, ref.Names[i], ref.Lengths[i], c.Name, len(c.Seq))
		}
	}
	return nil
}
