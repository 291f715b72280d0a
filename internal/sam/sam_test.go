package sam

import (
	"fmt"
	"strings"
	"testing"

	"seedex/internal/align"
)

func TestMappedRecordRendering(t *testing.T) {
	r := Record{
		QName: "read1", Flag: FlagReverse, RName: "chr1", Pos: 42, MapQ: 60,
		Cigar: align.Cigar{{Op: align.OpSoft, Len: 2}, {Op: align.OpMatch, Len: 6}},
		Seq:   "ACGTACGT", Qual: "IIIIIIII", Score: 90, SubScore: 10,
	}
	s := r.String()
	fields := strings.Split(s, "\t")
	if len(fields) != 13 {
		t.Fatalf("got %d fields: %q", len(fields), s)
	}
	want := []string{"read1", "16", "chr1", "42", "60", "2S6M", "*", "0", "0", "ACGTACGT", "IIIIIIII", "AS:i:90", "XS:i:10"}
	for i, w := range want {
		if fields[i] != w {
			t.Fatalf("field %d = %q, want %q", i, fields[i], w)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmappedRecordRendering(t *testing.T) {
	r := Record{QName: "read2", Flag: FlagUnmapped, Seq: "ACGT", Qual: "IIII"}
	fields := strings.Split(r.String(), "\t")
	if len(fields) != 11 {
		t.Fatalf("unmapped record has %d fields", len(fields))
	}
	if fields[2] != "*" || fields[3] != "0" || fields[5] != "*" {
		t.Fatalf("unmapped placeholders wrong: %v", fields)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySeqPlaceholders(t *testing.T) {
	r := Record{QName: "r", Flag: FlagUnmapped}
	fields := strings.Split(r.String(), "\t")
	if fields[9] != "*" || fields[10] != "*" {
		t.Fatalf("empty seq/qual should render *: %v", fields)
	}
}

func TestHeader(t *testing.T) {
	h := Header("chrSim", 12345, "seedex")
	if !strings.Contains(h, "SN:chrSim") || !strings.Contains(h, "LN:12345") {
		t.Fatalf("header missing fields: %q", h)
	}
	if !strings.HasPrefix(h, "@HD") {
		t.Fatalf("header must start with @HD: %q", h)
	}
}

func TestValidateCatchesBadRecords(t *testing.T) {
	bad := Record{QName: "x", Pos: 0, Seq: "ACGT", Cigar: align.Cigar{{Op: align.OpMatch, Len: 4}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("pos 0 mapped record must fail")
	}
	bad = Record{QName: "x", Pos: 5, MapQ: 99, Seq: "ACGT", Cigar: align.Cigar{{Op: align.OpMatch, Len: 4}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mapq 99 must fail")
	}
	bad = Record{QName: "x", Pos: 5, Seq: "ACGT", Cigar: align.Cigar{{Op: align.OpMatch, Len: 3}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("cigar/seq length mismatch must fail")
	}
}

// sprintfLine is the rendering AppendTo replaced, kept as its oracle.
func sprintfLine(r Record) string {
	rname, pos, cigar := "*", 0, "*"
	if r.Flag&FlagUnmapped == 0 {
		rname, pos, cigar = r.RName, r.Pos, r.Cigar.String()
	}
	seq, qual := r.Seq, r.Qual
	if seq == "" {
		seq = "*"
	}
	if qual == "" {
		qual = "*"
	}
	rnext := r.RNext
	if rnext == "" {
		rnext = "*"
	}
	s := fmt.Sprintf("%s\t%d\t%s\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t%s",
		r.QName, r.Flag, rname, pos, r.MapQ, cigar, rnext, r.PNext, r.TLen, seq, qual)
	if r.Flag&FlagUnmapped == 0 {
		s += fmt.Sprintf("\tAS:i:%d\tXS:i:%d", r.Score, r.SubScore)
	}
	return s
}

func TestAppendToMatchesSprintf(t *testing.T) {
	cigar := align.Cigar{{Op: align.OpSoft, Len: 3}, {Op: align.OpMatch, Len: 100}, {Op: align.OpIns, Len: 2}, {Op: align.OpDel, Len: 1}, {Op: align.OpMatch, Len: 45}}
	for i, r := range []Record{
		{},
		{Flag: FlagUnmapped},
		{QName: "r", Flag: FlagUnmapped, RName: "ignored", Pos: 7, MapQ: 3, Cigar: cigar, Seq: "ACGT", Qual: "I<>&", Score: 5, SubScore: 6},
		{QName: "read1", Flag: FlagReverse, RName: "chr1", Pos: 42, MapQ: 60, Cigar: cigar, Seq: "ACGTN", Qual: "IIII!", Score: 90, SubScore: -10},
		{QName: "p/1", Flag: FlagPaired | FlagRead1 | FlagMateReverse, RName: "chr2", Pos: 1 << 40, Cigar: cigar[:1], RNext: "=", PNext: 1234, TLen: -567, Score: 0},
		{QName: "", RName: "", Pos: -1, MapQ: -2, PNext: -3, TLen: 4},
	} {
		if got, want := r.String(), sprintfLine(r); got != want {
			t.Errorf("record %d:\n got %q\nwant %q", i, got, want)
		}
		if got := string(r.AppendTo([]byte("prefix|"))); got != "prefix|"+sprintfLine(r) {
			t.Errorf("record %d: AppendTo dropped or rewrote what dst held: %q", i, got)
		}
	}
}
