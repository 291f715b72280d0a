package refstore

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzDecode feeds untrusted bytes to the container validator. The
// contract under fuzzing: no panic, and no allocation driven past the
// input itself — a hostile header may declare sections of any size, but
// every declared extent is checked against the real image before a
// single byte is sliced or copied, so an accepted index can never be
// larger than the bytes that produced it. And an accepted file is
// exactly what Encode writes for its contents: re-encoding it at its own
// build time gives back the same bytes, so no byte of it went unchecked.
func FuzzDecode(f *testing.F) {
	ref, ix := buildFixture(f, 77, 600)
	var buf bytes.Buffer
	if _, err := Encode(&buf, ref, ix, time.Unix(1, 0)); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("SEDXRIX2"))
	f.Add(good[:headerBytes])
	f.Add(good[:len(good)-3])

	// Hostile header: plausible magic/version/CRC, sections declared far
	// past the file end.
	hostile := bytes.Clone(good[:headerBytes])
	binary.LittleEndian.PutUint64(hostile[16:], uint64(headerBytes)) // size = header only
	binary.LittleEndian.PutUint64(hostile[52:], uint64(headerBytes)) // text off
	binary.LittleEndian.PutUint64(hostile[60:], uint64(maxTextLen))  // text len: 8 GiB
	binary.LittleEndian.PutUint64(hostile[80:], uint64(4*int64(maxTextLen)))
	binary.LittleEndian.PutUint32(hostile[92:], checksum(hostile[:92]))
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		refD, ixD, info, err := Decode(data)
		if err != nil {
			return
		}
		if ixD.Len() > len(data) {
			t.Fatalf("accepted index of %d bytes from %d input bytes", ixD.Len(), len(data))
		}
		if info.FileBytes != int64(len(data)) {
			t.Fatalf("info declares %d bytes for a %d-byte input", info.FileBytes, len(data))
		}
		if len(refD.Names) == 0 {
			t.Fatal("accepted reference with no contigs")
		}
		var re bytes.Buffer
		if _, err := Encode(&re, refD, ixD, info.BuildTime); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("accepted file does not re-encode to itself (%d bytes in, %d out)", len(data), re.Len())
		}
	})
}
