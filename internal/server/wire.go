package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"seedex/internal/core"
	"seedex/internal/genome"
)

// The wire codec of the three job endpoints: one single-pass scanner for
// their fixed request shapes and append-based reply renderers. The scanner
// accepts what encoding/json accepts into ExtendRequest / MapRequest /
// ExtendJob and the renderers produce json.Encoder's bytes — the library
// stays in _test.go as the oracle for both — but sequences are translated
// to base codes as they are scanned, straight into an arena the queued jobs
// alias, and nothing is allocated per job.

// wireBuf is the pooled per-request memory of a batch request: the body as
// read, the arena its scanned items point into, the items and the reply.
// Queued jobs alias body and arena, so a wireBuf goes back to the pool
// only once every item of its request has landed (see serveBatch).
type wireBuf struct {
	body  []byte
	out   []byte
	sc    scanner // its arena and stack outlive a scan; held here so a scan allocates nothing
	jobs  []core.Request
	reads []mapRead
	// routeRegion is the ASCII of the first item's reference-side sequence
	// (job 0's target, read 0's seq): what the request's routing key hashes.
	routeRegion []byte
}

// maxPooledWire keeps one huge request from pinning its buffers in the pool.
const maxPooledWire = 1 << 20

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

func getWire() *wireBuf { return wirePool.Get().(*wireBuf) }

func putWire(wb *wireBuf) {
	if cap(wb.body)+cap(wb.sc.arena)+cap(wb.out) <= maxPooledWire {
		wirePool.Put(wb)
	}
}

// readBody reads r to EOF into wb.body. The buffer is sized from the
// declared length when there is one — capped, since a header is cheap to
// send — and grows with what actually arrives.
func (wb *wireBuf) readBody(r io.Reader, contentLength int64) error {
	buf := wb.body[:0]
	if need := int(min(max(contentLength, 511), maxPooledWire)) + 1; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			wb.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// seqTable is the translation table of the sequence loop: genome.Encode's
// code for every byte that can stand for itself inside a JSON string, with
// seqSlow set on the rest — escapes and non-ASCII, which need json's
// unquoting first, and raw control bytes, which are a syntax error.
const seqSlow = 0x80

var seqTable = func() (t [256]byte) {
	for c := range t {
		t[c] = genome.EncodeByte(byte(c))
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			t[c] = seqSlow
		}
	}
	return t
}()

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

var (
	errWireEOF   = errors.New("unexpected end of JSON input")
	errWireDepth = errors.New("exceeded max depth")
)

// scanner is a cursor over one JSON document. buf is never modified:
// decoded bytes go to arena, which only ever grows — when it runs out it is
// replaced, and slices handed out earlier keep the array they point into.
type scanner struct {
	buf   []byte
	pos   int
	arena []byte
	stack []byte
	depth int // open containers of the known shape around the cursor
}

// scanner points wb's scanner at the start of wb.body with an empty arena,
// big enough that plain sequences never outgrow it.
func (wb *wireBuf) scanner() *scanner {
	sc := &wb.sc
	*sc = scanner{buf: wb.body, arena: sc.arena[:0], stack: sc.stack}
	sc.room(len(wb.body))
	return sc
}

func (sc *scanner) syntax(what string) error {
	if sc.pos >= len(sc.buf) {
		return errWireEOF
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", sc.buf[sc.pos], what, sc.pos)
}

func (sc *scanner) mismatch(field, want string) error {
	return fmt.Errorf("field %s wants %s (offset %d)", field, want, sc.pos)
}

// peek skips whitespace and returns the byte under the cursor, 0 at the end
// of input (a NUL byte is no token either).
func (sc *scanner) peek() byte {
	for ; sc.pos < len(sc.buf); sc.pos++ {
		if c := sc.buf[sc.pos]; !isSpace(c) {
			return c
		}
	}
	return 0
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// expect consumes the token byte c.
func (sc *scanner) expect(c byte, where string) error {
	if sc.peek() != c {
		return sc.syntax(where)
	}
	sc.pos++
	return nil
}

// literal consumes the rest of true, false or null.
func (sc *scanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if sc.pos >= len(sc.buf) || sc.buf[sc.pos] != word[i] {
			return sc.syntax("in literal " + word)
		}
		sc.pos++
	}
	return nil
}

// null consumes a null, which every field accepts as "leave as is".
func (sc *scanner) null() error { return sc.literal("null") }

// str consumes a string (cursor on its opening quote) and returns its
// contents as written. plain reports that they stand for themselves: no
// escapes, no bytes unquote would have to validate as UTF-8.
func (sc *scanner) str() (raw []byte, plain bool, err error) {
	sc.pos++
	start := sc.pos
	plain = true
	for sc.pos < len(sc.buf) {
		c := sc.buf[sc.pos]
		switch {
		case c == '"':
			sc.pos++
			return sc.buf[start : sc.pos-1], plain, nil
		case c >= utf8.RuneSelf:
			plain = false
			sc.pos++
		case c >= 0x20 && c != '\\':
			sc.pos++
		case c == '\\':
			plain = false
			sc.pos++
			if sc.pos >= len(sc.buf) {
				return nil, false, errWireEOF
			}
			switch sc.buf[sc.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				sc.pos++
			case 'u':
				sc.pos++
				for i := 0; i < 4; i++ {
					if sc.pos >= len(sc.buf) || hexVal(sc.buf[sc.pos]) < 0 {
						return nil, false, sc.syntax("in \\u hexadecimal character escape")
					}
					sc.pos++
				}
			default:
				return nil, false, sc.syntax("in string escape code")
			}
		default:
			return nil, false, sc.syntax("in string literal")
		}
	}
	return nil, false, errWireEOF
}

// text consumes a string and returns its decoded bytes: a range of the
// body when plain, else unquoted into the arena.
func (sc *scanner) text() ([]byte, error) {
	raw, plain, err := sc.str()
	if err != nil || plain {
		return raw, err
	}
	sc.room(3 * len(raw))
	start := len(sc.arena)
	sc.arena = appendUnquoted(sc.arena, raw)
	return sc.arena[start:len(sc.arena):len(sc.arena)], nil
}

// room makes the arena hold n more bytes without moving. Slices handed out
// earlier stay on the array they were cut from.
func (sc *scanner) room(n int) {
	if cap(sc.arena)-len(sc.arena) < n {
		sc.arena = make([]byte, 0, max(2*cap(sc.arena), n))
	}
}

// seq consumes a string as a base sequence: codes holds genome.Encode of
// the decoded string, in the arena; ascii is the decoded string itself.
// Up to the first quote the loop is one table look-up per byte; if what it
// translated turns out not to be a plain string, the string is read again
// through text.
func (sc *scanner) seq() (codes, ascii []byte, err error) {
	src := sc.buf[sc.pos+1:]
	if end := bytes.IndexByte(src, '"'); end >= 0 {
		src = src[:end]
		sc.room(end)
		dst := sc.arena[len(sc.arena):cap(sc.arena)][:end]
		var flags byte
		for k, c := range src {
			code := seqTable[c]
			dst[k] = code
			flags |= code
		}
		if flags < seqSlow {
			sc.pos += end + 2
			sc.arena = sc.arena[:len(sc.arena)+end]
			return dst[:end:end], src, nil
		}
	}
	if ascii, err = sc.text(); err != nil {
		return nil, nil, err
	}
	sc.room(len(ascii))
	start := len(sc.arena)
	for _, c := range ascii {
		sc.arena = append(sc.arena, genome.EncodeByte(c))
	}
	return sc.arena[start:len(sc.arena):len(sc.arena)], ascii, nil
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// appendUnquoted decodes the contents of a string str has validated the
// way encoding/json does: escapes resolved, surrogate pairs joined, a lone
// surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	u4 := func(s []byte) rune {
		if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
			return -1
		}
		return rune(hexVal(s[2])<<12 | hexVal(s[3])<<8 | hexVal(s[4])<<4 | hexVal(s[5]))
	}
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\' && s[r+1] == 'u':
			rr := u4(s[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if dec := utf16.DecodeRune(rr, u4(s[r:])); dec != unicode.ReplacementChar {
					r += 6
					rr = dec
				} else {
					rr = unicode.ReplacementChar
				}
			}
			dst = utf8.AppendRune(dst, rr)
		case c == '\\':
			c = s[r+1]
			if i := strings.IndexByte("bfnrt", c); i >= 0 {
				c = "\b\f\n\r\t"[i]
			}
			dst = append(dst, c)
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// integer consumes a number into *v as encoding/json does for an int
// field: the whole JSON number grammar is checked, then anything with a
// fraction or an exponent, or outside int's range, is refused.
func (sc *scanner) integer(field string, v *int) error {
	start := sc.pos
	whole, err := sc.number()
	if err != nil {
		return err
	}
	n, perr := strconv.ParseInt(string(sc.buf[start:sc.pos]), 10, strconv.IntSize)
	if !whole || perr != nil {
		sc.pos = start
		return sc.mismatch(field, "an integer")
	}
	*v = int(n)
	return nil
}

// number consumes a JSON number; whole reports it had neither fraction
// nor exponent.
func (sc *scanner) number() (whole bool, err error) {
	cur := func() byte { // 0 at the end of input
		if sc.pos < len(sc.buf) {
			return sc.buf[sc.pos]
		}
		return 0
	}
	digits := func() bool {
		start := sc.pos
		for c := cur(); '0' <= c && c <= '9'; c = cur() {
			sc.pos++
		}
		return sc.pos > start
	}
	if cur() == '-' {
		sc.pos++
	}
	if cur() == '0' {
		sc.pos++
	} else if !digits() {
		return false, sc.syntax("in numeric literal")
	}
	whole = true
	if cur() == '.' {
		sc.pos++
		if whole = false; !digits() {
			return false, sc.syntax("after decimal point in numeric literal")
		}
	}
	if c := cur(); c == 'e' || c == 'E' {
		sc.pos++
		if c := cur(); c == '+' || c == '-' {
			sc.pos++
		}
		if whole = false; !digits() {
			return false, sc.syntax("in exponent of numeric literal")
		}
	}
	return whole, nil
}

// nextKey steps to the next member of the object the cursor is in (first:
// just past its brace) and returns the decoded key with the cursor on the
// member's value, or done past the closing brace.
func (sc *scanner) nextKey(first bool) (key []byte, done bool, err error) {
	c := sc.peek()
	if c == '}' {
		sc.pos++
		return nil, true, nil
	}
	if !first {
		if c != ',' {
			return nil, false, sc.syntax("after object key:value pair")
		}
		sc.pos++
		c = sc.peek()
	}
	if c != '"' {
		return nil, false, sc.syntax("looking for beginning of object key string")
	}
	if key, err = sc.text(); err != nil {
		return nil, false, err
	}
	return key, false, sc.expect(':', "after object key")
}

// nextElem steps to the next element of the array the cursor is in, or
// reports done past the closing bracket.
func (sc *scanner) nextElem(first bool) (done bool, err error) {
	c := sc.peek()
	if c == ']' {
		sc.pos++
		return true, nil
	}
	if !first {
		if c != ',' {
			return false, sc.syntax("after array element")
		}
		sc.pos++
		sc.peek()
	}
	return false, nil
}

// fieldOf resolves a decoded key to the index of the field name it selects
// the way encoding/json resolves struct fields — exactly, else under
// Unicode simple case folding — or -1 for a key the shape does not know.
func fieldOf(key []byte, names ...string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// skipValue consumes any JSON value, checking its whole grammar, without a
// recursion: the open brackets are a stack of bytes.
func (sc *scanner) skipValue() error {
	sc.stack = sc.stack[:0]
	for {
		var err error
		switch c := sc.peek(); c {
		case '{', '[':
			sc.pos++
			sc.stack = append(sc.stack, c)
			if sc.depth+len(sc.stack) > maxWireDepth {
				return errWireDepth
			}
			if c == '[' {
				if sc.peek() != ']' {
					continue
				}
			} else if sc.peek() != '}' {
				if err = sc.skipKey(); err != nil {
					return err
				}
				continue
			}
		case '"':
			_, _, err = sc.str()
		case 't':
			err = sc.literal("true")
		case 'f':
			err = sc.literal("false")
		case 'n':
			err = sc.null()
		default:
			if c != '-' && (c < '0' || c > '9') {
				return sc.syntax("looking for beginning of value")
			}
			_, err = sc.number()
		}
		if err != nil {
			return err
		}
		// A value just ended: close every container that ends with it,
		// then step to the next sibling.
		for {
			if len(sc.stack) == 0 {
				return nil
			}
			open := sc.stack[len(sc.stack)-1]
			c := sc.peek()
			if c == open+2 { // ']' is '['+2 and '}' is '{'+2
				sc.pos++
				sc.stack = sc.stack[:len(sc.stack)-1]
				continue
			}
			if c != ',' {
				return sc.syntax("after value")
			}
			sc.pos++
			if open == '{' {
				if err := sc.skipKey(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// skipKey consumes an object key and its colon.
func (sc *scanner) skipKey() error {
	if sc.peek() != '"' {
		return sc.syntax("looking for beginning of object key string")
	}
	if _, _, err := sc.str(); err != nil {
		return err
	}
	return sc.expect(':', "after object key")
}

// scanJob consumes one ExtendJob value (cursor on its first byte) onto j —
// fields the object does not name keep what j held — and returns the ASCII
// of its target when the object named one.
func (sc *scanner) scanJob(j *core.Request) (target []byte, err error) {
	if done, err := sc.openItem("a job"); done {
		return nil, err
	}
	for first := true; ; first = false {
		key, done, err := sc.nextKey(first)
		if err != nil || done {
			sc.depth--
			return target, err
		}
		field := fieldOf(key, "query", "target", "h0")
		switch c := sc.peek(); {
		case field < 0:
			err = sc.skipValue()
		case c == 'n':
			err = sc.null()
		case field == 2:
			err = sc.integer("h0", &j.H0)
		case c != '"':
			err = sc.mismatch(string(key), "a string")
		case field == 0:
			j.Q, _, err = sc.seq()
		default:
			j.T, target, err = sc.seq()
		}
		if err != nil {
			return nil, err
		}
	}
}

// scanRead consumes one MapRead value onto rd, and returns the ASCII of its
// seq when the object named one.
func (sc *scanner) scanRead(rd *mapRead) (seq []byte, err error) {
	if done, err := sc.openItem("a read"); done {
		return nil, err
	}
	for first := true; ; first = false {
		key, done, err := sc.nextKey(first)
		if err != nil || done {
			sc.depth--
			if len(rd.qual) == 0 {
				rd.qual = nil // absent, to the mapper
			}
			return seq, err
		}
		field := fieldOf(key, "name", "seq", "qual")
		switch c := sc.peek(); {
		case field < 0:
			err = sc.skipValue()
		case c == 'n':
			err = sc.null()
		case c != '"':
			err = sc.mismatch(string(key), "a string")
		case field == 0:
			rd.name, err = sc.text()
		case field == 1:
			rd.seq, seq, err = sc.seq()
		default:
			rd.qual, err = sc.text()
		}
		if err != nil {
			return nil, err
		}
	}
}

// openItem enters the object an item is written as. done reports there is
// nothing to enter: the value was null (the item stays as it is) or no
// object at all.
func (sc *scanner) openItem(what string) (done bool, err error) {
	switch sc.peek() {
	case 'n':
		return true, sc.null()
	case '{':
		sc.pos++
		sc.depth++
		return false, nil
	}
	return true, sc.mismatch(what, "an object")
}

// scanBatch consumes a batch request body — an object holding the array
// listKey of items and deadline_ms — into items[:0]. A repeated list key
// decodes onto the elements the earlier one left, as encoding/json reuses
// the slice it is filling; elements this request has not written start
// zeroed. region is what elem returned for the element at index 0.
func scanBatch[P any](sc *scanner, items []P, listKey string, elem func(*scanner, *P) ([]byte, error)) (out []P, deadlineMs int, region []byte, err error) {
	items = items[:0]
	switch sc.peek() {
	case 'n':
		return items, 0, nil, sc.null()
	case '{':
		sc.pos++
	default:
		return nil, 0, nil, sc.mismatch("the body", "an object")
	}
	sc.depth = 1
	written := 0 // elements of items[:cap] this request has decoded onto
	for first := true; ; first = false {
		key, done, err := sc.nextKey(first)
		if err != nil || done {
			return items, deadlineMs, region, err
		}
		field := fieldOf(key, listKey, "deadline_ms")
		switch c := sc.peek(); {
		case field < 0:
			err = sc.skipValue()
		case c == 'n' && field == 0:
			items, written, err = items[:0], 0, sc.null()
		case c == 'n':
			err = sc.null()
		case field == 1:
			err = sc.integer("deadline_ms", &deadlineMs)
		case c != '[':
			err = sc.mismatch(listKey, "an array")
		default:
			sc.pos++
			sc.depth++
			items = items[:0]
			for first := true; err == nil; first = false {
				var done bool
				if done, err = sc.nextElem(first); done || err != nil {
					break
				}
				n := len(items)
				if n < written {
					items = items[:n+1]
				} else {
					var zero P
					items = append(items, zero)
					written = n + 1
					if n == 0 {
						region = nil
					}
				}
				var r []byte
				if r, err = elem(sc, &items[n]); n == 0 && r != nil {
					region = r
				}
			}
			sc.depth--
			if len(items) == 0 {
				written = 0
			}
		}
		if err != nil {
			return nil, 0, nil, err
		}
	}
}

// scanExtend scans wb.body as an ExtendRequest into wb.jobs.
func (wb *wireBuf) scanExtend() (jobs []core.Request, deadlineMs int, err error) {
	wb.jobs, deadlineMs, wb.routeRegion, err = scanBatch(wb.scanner(), wb.jobs, "jobs", (*scanner).scanJob)
	return wb.jobs, deadlineMs, err
}

// scanMap scans wb.body as a MapRequest into wb.reads.
func (wb *wireBuf) scanMap() (reads []mapRead, deadlineMs int, err error) {
	wb.reads, deadlineMs, wb.routeRegion, err = scanBatch(wb.scanner(), wb.reads, "reads", (*scanner).scanRead)
	return wb.reads, deadlineMs, err
}

// scanLine scans one framed value of a stream as an ExtendJob. Each streamed
// job owns its pending, so each gets an arena of its own that lives as long
// as the job does; target may alias frame.
func scanLine(frame []byte) (req core.Request, target []byte, err error) {
	sc := scanner{buf: frame, arena: make([]byte, 0, len(frame))}
	target, err = sc.scanJob(&req)
	return req, target, err
}

// frameValue reads the next top-level JSON value of a stream into buf, the
// way a json.Decoder delimits them: values may share or span lines. An
// object or array runs to its matching bracket, tracked by depth outside
// strings; anything else (no job, whatever it is) runs to the next space or
// bracket. The grammar is scanJob's to check. io.EOF means the stream ended
// between values.
func frameValue(br *bufio.Reader, buf []byte) ([]byte, error) {
	c, err := br.ReadByte()
	for err == nil && isSpace(c) {
		c, err = br.ReadByte()
	}
	if err != nil {
		return buf, err
	}
	buf = append(buf, c)
	if c != '{' && c != '[' {
		for {
			if c, err = br.ReadByte(); err == io.EOF {
				return buf, nil
			} else if err != nil {
				return buf, err
			}
			if isSpace(c) || c == '{' || c == '[' {
				return buf, br.UnreadByte()
			}
			buf = append(buf, c)
		}
	}
	inStr, esc := false, false
	for depth := 1; depth > 0; {
		if c, err = br.ReadByte(); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		buf = append(buf, c)
		switch {
		case esc:
			esc = false
		case inStr:
			esc, inStr = c == '\\', c != '"'
		case c == '"':
			inStr = true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		}
	}
	return buf, nil
}

// Reply rendering: the bytes json.NewEncoder(w).Encode writes for the
// response structs, trailing newline included.

func appendExtendResult(dst []byte, r *ExtendResult) []byte {
	dst = strconv.AppendInt(append(dst, `{"local":`...), int64(r.Local), 10)
	dst = strconv.AppendInt(append(dst, `,"local_t":`...), int64(r.LocalT), 10)
	dst = strconv.AppendInt(append(dst, `,"local_q":`...), int64(r.LocalQ), 10)
	dst = strconv.AppendInt(append(dst, `,"global":`...), int64(r.Global), 10)
	dst = strconv.AppendInt(append(dst, `,"global_t":`...), int64(r.GlobalT), 10)
	dst = strconv.AppendInt(append(dst, `,"cells":`...), r.Cells, 10)
	if r.Rerun {
		dst = append(dst, `,"rerun":true`...)
	}
	return append(dst, '}')
}

func appendMapResult(dst []byte, r *MapResult) []byte {
	dst = appendJSONString(append(dst, `{"name":`...), r.Name)
	dst = strconv.AppendBool(append(dst, `,"mapped":`...), r.Mapped)
	if r.RName != "" {
		dst = appendJSONString(append(dst, `,"rname":`...), r.RName)
	}
	if r.Pos != 0 {
		dst = strconv.AppendInt(append(dst, `,"pos":`...), int64(r.Pos), 10)
	}
	if r.Rev {
		dst = append(dst, `,"rev":true`...)
	}
	dst = strconv.AppendInt(append(dst, `,"mapq":`...), int64(r.MapQ), 10)
	dst = strconv.AppendInt(append(dst, `,"score":`...), int64(r.Score), 10)
	if r.Cigar != "" {
		dst = appendJSONString(append(dst, `,"cigar":`...), r.Cigar)
	}
	dst = appendJSONString(append(dst, `,"sam":`...), r.Sam)
	return append(dst, '}')
}

// appendReply wraps results rendered by one into {"results":[...]}.
func appendReply[R any](dst []byte, res []R, one func([]byte, *R) []byte) []byte {
	dst = append(dst, `{"results":`...)
	if res == nil {
		return append(dst, "null}\n"...)
	}
	dst = append(dst, '[')
	for i := range res {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = one(dst, &res[i])
	}
	return append(dst, "]}\n"...)
}

func appendExtendReply(dst []byte, res []ExtendResult) []byte {
	return appendReply(dst, res, appendExtendResult)
}

func appendMapReply(dst []byte, res []MapResult) []byte {
	return appendReply(dst, res, appendMapResult)
}

// jsonPlain marks the bytes json.Encoder copies into a string as they are
// under its default HTML escaping: printable ASCII but for ", \\, <, > and &.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\\<>&`, rune(c))
	}
	return t
}()

// appendJSONString quotes s as json.Encoder does: the bytes outside
// jsonPlain escaped (<, > and & as \u00XX), U+2028/9 escaped, invalid UTF-8
// as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonPlain[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				dst = append(append(dst, s[start:i]...), `\u202`...)
				dst = append(dst, hex[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		dst = append(append(dst, s[start:i]...), '\\')
		switch c {
		case '"', '\\':
			dst = append(dst, c)
		case '\b':
			dst = append(dst, 'b')
		case '\f':
			dst = append(dst, 'f')
		case '\n':
			dst = append(dst, 'n')
		case '\r':
			dst = append(dst, 'r')
		case '\t':
			dst = append(dst, 't')
		default:
			dst = append(dst, 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
