package obs

import (
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Request ids correlate one request's spans, response header and error
// bodies. Generated ids are 16 lowercase hex digits of a uint64 drawn
// from a per-process SplitMix64 stream seeded at startup, so the id
// string and the span trace id round-trip exactly. Client-supplied ids
// are echoed verbatim and hashed onto a uint64 for span correlation
// (short hex ids parse exactly instead).

var (
	idSeed = mix64(uint64(time.Now().UnixNano()) ^ 0x5eedec5eedec)
	idCtr  atomic.Uint64
)

// NewRequestID mints a fresh request id: the trace id and its canonical
// 16-hex-digit string form.
func NewRequestID() (uint64, string) {
	id := mix64(idSeed + idCtr.Add(1))
	if id == 0 {
		id = 1
	}
	return id, FormatID(id)
}

// FormatID renders a trace id as its canonical 16-hex-digit string.
func FormatID(id uint64) string {
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(id)
		id >>= 8
	}
	return hex.EncodeToString(b[:])
}

// RequestID resolves one request's id: a non-empty client value is kept
// verbatim (parsed as hex when it is 1-16 hex digits, hashed otherwise);
// an empty value mints a fresh id. The uint64 keys the request's spans,
// the string is echoed in the X-Request-Id response header.
func RequestID(client string) (uint64, string) {
	if client == "" {
		return NewRequestID()
	}
	if len(client) > 128 {
		client = client[:128]
	}
	if id, ok := parseHexID(client); ok {
		return id, client
	}
	return hashID(client), client
}

// parseHexID parses a 1-16 lowercase/uppercase hex string exactly.
func parseHexID(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case 'A' <= c && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return 0, false
		}
	}
	if v == 0 {
		v = 1
	}
	return v, true
}

// hashID folds an arbitrary client id onto a trace id (FNV-1a + mix).
func hashID(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h = mix64(h)
	if h == 0 {
		h = 1
	}
	return h
}

// mix64 is SplitMix64's finalizer: the id stream and the client-id hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
