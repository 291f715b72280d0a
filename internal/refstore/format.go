// Package refstore owns the one on-disk reference index format and is the
// crash-safe lifecycle layer for the index behind /v1/map: a checksummed
// container built once (by cmd/seedex-index, or by seedex-align -index
// on first use), published atomically, memory-mapped read-only so
// every mapping worker shares one physical copy, and swapped
// under traffic through refcounted generations with rollback when a
// reload hits a corrupt, truncated or vanished file.
//
// The paper's serving engine (§V) assumes the reference is a long-lived
// resident artifact; this package supplies the part the paper takes for
// granted — surviving the filesystem that artifact lives on.
package refstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"seedex/internal/bwamem"
	"seedex/internal/fmindex"
)

// Container format v2 ("SEDXRIX2"): a fixed self-checksummed header
// addressing three sections — contig table, reference text, suffix
// array — in that order, each CRC32-C framed and starting at the first
// 8-byte boundary after the one before it (zero padding between them;
// Decode accepts exactly this layout). The layout is
// mmap-first: after validation the text and suffix array load zero-copy
// as slices aliasing the mapped region.
//
//	off  0  magic   [8]byte "SEDXRIX2"
//	off  8  u32     format version (2)
//	off 12  u32     header bytes (96)
//	off 16  u64     total file bytes (truncation guard)
//	off 24  u64     build time, unix nanoseconds (provenance)
//	off 32  u64/u64/u32  contig table: offset, length, CRC32-C
//	off 52  u64/u64/u32  text section:  offset, length, CRC32-C
//	off 72  u64/u64/u32  suffix array:  offset, length, CRC32-C
//	off 92  u32     header CRC32-C over bytes [0, 92)
const (
	formatVersion = 2
	headerBytes   = 96
	sectionAlign  = 8

	// maxTextLen bounds the declared reference length (8 Gb covers any
	// genome this system serves); maxContigs and maxNameLen bound the
	// contig table. Anything larger is a hostile header, not data.
	maxTextLen = 1 << 33
	maxContigs = 1 << 20
	maxNameLen = 4096
)

var formatMagic = [8]byte{'S', 'E', 'D', 'X', 'R', 'I', 'X', '2'}

// castagnoli is the CRC32-C table every checksummed field uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Info describes a validated container file.
type Info struct {
	Path      string    `json:"path,omitempty"`
	FileBytes int64     `json:"file_bytes"`
	TextBytes int64     `json:"text_bytes"`
	SABytes   int64     `json:"sa_bytes"`
	Contigs   int       `json:"contigs"`
	BuildTime time.Time `json:"build_time"`
	TextCRC   uint32    `json:"text_crc32c"`
	SACRC     uint32    `json:"sa_crc32c"`
	ZeroCopy  bool      `json:"zero_copy"` // sections alias the input bytes
}

// section is one header-addressed extent.
type section struct {
	off, n uint64
	crc    uint32
}

func putSection(hdr []byte, at int, s section) {
	binary.LittleEndian.PutUint64(hdr[at:], s.off)
	binary.LittleEndian.PutUint64(hdr[at+8:], s.n)
	binary.LittleEndian.PutUint32(hdr[at+16:], s.crc)
}

func getSection(hdr []byte, at int) section {
	return section{
		off: binary.LittleEndian.Uint64(hdr[at:]),
		n:   binary.LittleEndian.Uint64(hdr[at+8:]),
		crc: binary.LittleEndian.Uint32(hdr[at+16:]),
	}
}

// checkSection validates one extent against the file: inside it,
// non-overflowing, and matching its checksum.
func checkSection(data []byte, name string, s section) ([]byte, error) {
	size := uint64(len(data))
	if s.n > size || s.off > size-s.n {
		return nil, fmt.Errorf("refstore: %s section [%d, %d) exceeds file size %d", name, s.off, s.off+s.n, size)
	}
	b := data[s.off : s.off+s.n]
	if got := checksum(b); got != s.crc {
		return nil, fmt.Errorf("refstore: %s section checksum mismatch (got %#x, want %#x)", name, got, s.crc)
	}
	return b, nil
}

// checkLayout requires exactly the layout Encode writes: the sections in
// order after the header, each at the next 8-byte boundary, every
// padding byte zero, and the file ending where the last section ends.
// With the header and section checksums this leaves no byte of the file
// unchecked. The sections must already lie inside data (checkSection).
func checkLayout(data []byte, secs ...section) error {
	at := uint64(headerBytes)
	for _, s := range secs {
		start := at + uint64(pad(int(at)))
		if s.off != start {
			return fmt.Errorf("refstore: section at offset %d, want %d", s.off, start)
		}
		for _, b := range data[at:start] {
			if b != 0 {
				return fmt.Errorf("refstore: nonzero padding byte before offset %d", start)
			}
		}
		at = s.off + s.n
	}
	if at != uint64(len(data)) {
		return fmt.Errorf("refstore: %d bytes after the last section", uint64(len(data))-at)
	}
	return nil
}

// encodeContigs renders the contig table section.
func encodeContigs(r *bwamem.Reference) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Names)))
	for i, name := range r.Names {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
		out = append(out, name...)
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Offsets[i]))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Lengths[i]))
	}
	return out
}

// decodeContigs parses the contig table with every length capped before
// any allocation sized from it.
func decodeContigs(b []byte, textLen uint64) (*bwamem.Reference, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("refstore: contig table too short")
	}
	count := binary.LittleEndian.Uint32(b)
	if count == 0 || count > maxContigs {
		return nil, fmt.Errorf("refstore: implausible contig count %d", count)
	}
	b = b[4:]
	r := &bwamem.Reference{
		Names:   make([]string, 0, min(count, 1024)),
		Offsets: make([]int, 0, min(count, 1024)),
		Lengths: make([]int, 0, min(count, 1024)),
	}
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("refstore: contig table truncated at entry %d", i)
		}
		nameLen := binary.LittleEndian.Uint32(b)
		if nameLen == 0 || nameLen > maxNameLen {
			return nil, fmt.Errorf("refstore: implausible contig name length %d", nameLen)
		}
		if uint64(len(b)) < 4+uint64(nameLen)+16 {
			return nil, fmt.Errorf("refstore: contig table truncated inside entry %d", i)
		}
		name := string(b[4 : 4+nameLen])
		off := binary.LittleEndian.Uint64(b[4+nameLen:])
		ln := binary.LittleEndian.Uint64(b[4+nameLen+8:])
		if ln == 0 || off > textLen || ln > textLen-off {
			return nil, fmt.Errorf("refstore: contig %q extent [%d, %d) exceeds text length %d", name, off, off+ln, textLen)
		}
		r.Names = append(r.Names, name)
		r.Offsets = append(r.Offsets, int(off))
		r.Lengths = append(r.Lengths, int(ln))
		b = b[4+nameLen+16:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("refstore: %d trailing bytes after contig table", len(b))
	}
	return r, nil
}

// pad returns the bytes needed to align n up to the section boundary.
func pad(n int) int { return (sectionAlign - n%sectionAlign) % sectionAlign }

// Encode writes the container for (ref, index) and returns its Info.
// The suffix-array section is streamed in bounded chunks, so encoding a
// multi-hundred-megabase reference never doubles it in memory.
func Encode(w io.Writer, r *bwamem.Reference, ix *fmindex.Index, buildTime time.Time) (Info, error) {
	contigs := encodeContigs(r)
	text := ix.Text()
	sa := ix.SA()

	contigSec := section{off: headerBytes, n: uint64(len(contigs)), crc: checksum(contigs)}
	textOff := contigSec.off + contigSec.n
	textOff += uint64(pad(int(textOff)))
	textSec := section{off: textOff, n: uint64(len(text)), crc: checksum(text)}
	saOff := textSec.off + textSec.n
	saOff += uint64(pad(int(saOff)))
	saSec := section{off: saOff, n: 4 * uint64(len(sa))}
	fileSize := saSec.off + saSec.n

	// Stream the suffix array once for its checksum, once for the write.
	const chunkEntries = 1 << 18
	chunk := make([]byte, 0, 4*chunkEntries)
	forEachSAChunk := func(fn func([]byte) error) error {
		for beg := 0; beg < len(sa); beg += chunkEntries {
			end := min(beg+chunkEntries, len(sa))
			chunk = chunk[:0]
			for _, v := range sa[beg:end] {
				chunk = binary.LittleEndian.AppendUint32(chunk, uint32(v))
			}
			if err := fn(chunk); err != nil {
				return err
			}
		}
		return nil
	}
	forEachSAChunk(func(b []byte) error {
		saSec.crc = crc32.Update(saSec.crc, castagnoli, b)
		return nil
	})

	hdr := make([]byte, headerBytes)
	copy(hdr, formatMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], headerBytes)
	binary.LittleEndian.PutUint64(hdr[16:], fileSize)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(buildTime.UnixNano()))
	putSection(hdr, 32, contigSec)
	putSection(hdr, 52, textSec)
	putSection(hdr, 72, saSec)
	binary.LittleEndian.PutUint32(hdr[92:], checksum(hdr[:92]))

	var padding [sectionAlign]byte
	for _, b := range [][]byte{hdr, contigs, padding[:pad(int(contigSec.off+contigSec.n))], text, padding[:pad(int(textSec.off+textSec.n))]} {
		if _, err := w.Write(b); err != nil {
			return Info{}, err
		}
	}
	if err := forEachSAChunk(func(b []byte) error { _, err := w.Write(b); return err }); err != nil {
		return Info{}, err
	}
	return Info{
		FileBytes: int64(fileSize),
		TextBytes: int64(textSec.n),
		SABytes:   int64(saSec.n),
		Contigs:   len(r.Names),
		BuildTime: buildTime,
		TextCRC:   textSec.crc,
		SACRC:     saSec.crc,
	}, nil
}

// WriteFile publishes the container atomically: the bytes land in a
// temporary file in the target directory, reach stable storage via
// fsync, and only then take the target name via rename (with a
// directory fsync behind it) — a crash at any point leaves either the
// old file or the new one, never a torn hybrid.
func WriteFile(path string, r *bwamem.Reference, ix *fmindex.Index) (Info, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return Info{}, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	info, err := Encode(tmp, r, ix, time.Now())
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Info{}, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return Info{}, err
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	info.Path = path
	return info, nil
}

// Decode validates a whole container image and assembles the reference
// and FM index. Every header-declared length is checked against the
// image size (and sane caps) before anything is allocated or sliced,
// so hostile bytes cannot drive allocations past the input itself.
//
// When the suffix-array section is 4-byte aligned in memory (always
// true for a mapped file; checked at runtime otherwise) the text and
// suffix array alias data zero-copy — the caller must keep data alive
// and unmodified for the life of the returned index.
func Decode(data []byte) (*bwamem.Reference, *fmindex.Index, Info, error) {
	fail := func(err error) (*bwamem.Reference, *fmindex.Index, Info, error) {
		return nil, nil, Info{}, err
	}
	if len(data) < headerBytes {
		return fail(fmt.Errorf("refstore: file too short for a header (%d bytes)", len(data)))
	}
	hdr := data[:headerBytes]
	if [8]byte(hdr[:8]) != formatMagic {
		return fail(fmt.Errorf("refstore: not a seedex reference index (bad magic)"))
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		return fail(fmt.Errorf("refstore: unsupported format version %d", v))
	}
	if hb := binary.LittleEndian.Uint32(hdr[12:]); hb != headerBytes {
		return fail(fmt.Errorf("refstore: unexpected header size %d", hb))
	}
	if got, want := checksum(hdr[:92]), binary.LittleEndian.Uint32(hdr[92:]); got != want {
		return fail(fmt.Errorf("refstore: header checksum mismatch (got %#x, want %#x)", got, want))
	}
	if size := binary.LittleEndian.Uint64(hdr[16:]); size != uint64(len(data)) {
		return fail(fmt.Errorf("refstore: file is %d bytes, header declares %d (truncated or grown)", len(data), size))
	}

	contigSec := getSection(hdr, 32)
	textSec := getSection(hdr, 52)
	saSec := getSection(hdr, 72)
	if textSec.n > maxTextLen {
		return fail(fmt.Errorf("refstore: implausible text length %d", textSec.n))
	}
	if saSec.n != 4*textSec.n {
		return fail(fmt.Errorf("refstore: suffix-array section is %d bytes, want %d", saSec.n, 4*textSec.n))
	}
	contigs, err := checkSection(data, "contig", contigSec)
	if err != nil {
		return fail(err)
	}
	text, err := checkSection(data, "text", textSec)
	if err != nil {
		return fail(err)
	}
	saBytes, err := checkSection(data, "suffix-array", saSec)
	if err != nil {
		return fail(err)
	}
	if err := checkLayout(data, contigSec, textSec, saSec); err != nil {
		return fail(err)
	}

	ref, err := decodeContigs(contigs, textSec.n)
	if err != nil {
		return fail(err)
	}

	var sa []int32
	zeroCopy := len(saBytes) == 0 || uintptr(unsafe.Pointer(&saBytes[0]))%4 == 0
	if zeroCopy && len(saBytes) > 0 {
		sa = unsafe.Slice((*int32)(unsafe.Pointer(&saBytes[0])), len(saBytes)/4)
	} else {
		sa = make([]int32, len(saBytes)/4)
		for i := range sa {
			sa[i] = int32(binary.LittleEndian.Uint32(saBytes[4*i:]))
		}
	}
	ix, err := fmindex.FromParts(text, sa)
	if err != nil {
		return fail(err)
	}
	ref.Cat = ix.Text()
	info := Info{
		FileBytes: int64(len(data)),
		TextBytes: int64(textSec.n),
		SABytes:   int64(saSec.n),
		Contigs:   len(ref.Names),
		BuildTime: time.Unix(0, int64(binary.LittleEndian.Uint64(hdr[24:]))),
		TextCRC:   textSec.crc,
		SACRC:     saSec.crc,
		ZeroCopy:  zeroCopy,
	}
	return ref, ix, info, nil
}

// Verify validates the container at path without keeping it resident.
func Verify(path string) (Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	_, _, info, err := Decode(data)
	if err != nil {
		return Info{}, err
	}
	info.Path = path
	info.ZeroCopy = false
	return info, nil
}
