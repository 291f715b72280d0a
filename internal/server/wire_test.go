package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

// --- The oracle: the codec wire.go replaced, kept verbatim ------------------
//
// encoding/json into the exported wire structs, genome.Encode over every
// sequence, the validators on the decoded strings, json.Encoder for the
// replies.

func oracleValidateJob(j ExtendJob, maxSeqLen int) error {
	if j.Query == "" || j.Target == "" {
		return fmt.Errorf("query and target must be non-empty")
	}
	if len(j.Query) > maxSeqLen || len(j.Target) > maxSeqLen {
		return fmt.Errorf("sequence longer than %d bp", maxSeqLen)
	}
	if j.H0 < 0 {
		return fmt.Errorf("h0 must be non-negative")
	}
	return nil
}

func oracleValidateRead(rd MapRead, maxSeqLen int) error {
	if rd.Seq == "" || len(rd.Seq) > maxSeqLen {
		return fmt.Errorf("seq must hold 1..%d bases", maxSeqLen)
	}
	if rd.Qual != "" && len(rd.Qual) != len(rd.Seq) {
		return fmt.Errorf("qual length %d != seq length %d", len(rd.Qual), len(rd.Seq))
	}
	if rd.Name == "" || len(rd.Name) > 254 {
		return fmt.Errorf("name must hold 1..254 characters")
	}
	for i := 0; i < len(rd.Name); i++ {
		if c := rd.Name[i]; c < '!' || c > '~' || c == '@' {
			return fmt.Errorf("name holds byte %#02x outside SAM's [!-?A-~]", c)
		}
	}
	for i := 0; i < len(rd.Qual); i++ {
		if c := rd.Qual[i]; c < '!' || c > '~' {
			return fmt.Errorf("qual holds byte %#02x outside SAM's [!-~]", c)
		}
	}
	return nil
}

func oraclePayload(j ExtendJob) core.Request {
	return core.Request{Q: genome.Encode(j.Query), T: genome.Encode(j.Target), H0: j.H0}
}

func oracleRead(rd MapRead) mapRead {
	var qual []byte
	if rd.Qual != "" {
		qual = []byte(rd.Qual)
	}
	return mapRead{name: []byte(rd.Name), seq: genome.Encode(rd.Seq), qual: qual}
}

func oracleEncode(v any) []byte {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(v)
	return b.Bytes()
}

// verdict is what a batch endpoint answers before anything is queued: 0
// for "goes on to compute", else the status and error message. exact is
// false where only the message's "bad request body:" prefix is contract.
type verdict struct {
	status int
	msg    string
	exact  bool
}

func (v verdict) matches(status int, msg string) bool {
	if v.status == 0 {
		return status == http.StatusOK || status == http.StatusGatewayTimeout
	}
	if v.exact {
		return status == v.status && msg == v.msg
	}
	return status == v.status && strings.HasPrefix(msg, v.msg)
}

// oracleVerdict is the old serveBatch up to the submit loop, plus the one
// listed tightening: a body over MaxBodyBytes is 413 whatever it holds.
func oracleVerdict(path string, body []byte, cfg Config) verdict {
	bad := func(format string, args ...any) verdict {
		return verdict{http.StatusBadRequest, fmt.Sprintf(format, args...), true}
	}
	if int64(len(body)) > cfg.MaxBodyBytes {
		return verdict{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body larger than %d bytes", cfg.MaxBodyBytes), true}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if path == "/v1/map" {
		var q MapRequest
		if dec.Decode(&q) != nil {
			return verdict{http.StatusBadRequest, "bad request body: ", false}
		}
		if n := len(q.Reads); n == 0 || n > cfg.MaxJobsPerRequest {
			return bad("reads must hold 1..%d entries", cfg.MaxJobsPerRequest)
		}
		for i, rd := range q.Reads {
			if err := oracleValidateRead(rd, cfg.MaxSeqLen); err != nil {
				return bad("read %d: %v", i, err)
			}
		}
		return verdict{}
	}
	var q ExtendRequest
	if dec.Decode(&q) != nil {
		return verdict{http.StatusBadRequest, "bad request body: ", false}
	}
	if n := len(q.Jobs); n == 0 || n > cfg.MaxJobsPerRequest {
		return bad("jobs must hold 1..%d entries", cfg.MaxJobsPerRequest)
	}
	for i, j := range q.Jobs {
		if err := oracleValidateJob(j, cfg.MaxSeqLen); err != nil {
			return bad("job %d: %v", i, err)
		}
	}
	return verdict{}
}

// streamOutcome is how far a stream's reader gets: the jobs it admits, then
// a clean end (fail == ""), a refused line (exact) or a line that would not
// decode (prefix only).
type streamOutcome struct {
	jobs  []core.Request
	fail  string
	exact bool
}

func oracleStream(body []byte, maxSeqLen int) (out streamOutcome) {
	dec := json.NewDecoder(bytes.NewReader(body))
	for i := 0; ; i++ {
		var j ExtendJob
		if err := dec.Decode(&j); err != nil {
			if err != io.EOF {
				out.fail = fmt.Sprintf("line %d: ", i)
			}
			return out
		}
		if err := oracleValidateJob(j, maxSeqLen); err != nil {
			out.fail, out.exact = fmt.Sprintf("line %d: %v", i, err), true
			return out
		}
		out.jobs = append(out.jobs, oraclePayload(j))
	}
}

func wireStream(body []byte, maxSeqLen int) (out streamOutcome) {
	br := bufio.NewReader(bytes.NewReader(body))
	var frame []byte
	for i := 0; ; i++ {
		var err error
		if frame, err = frameValue(br, frame[:0]); err != nil {
			if err != io.EOF {
				out.fail = fmt.Sprintf("line %d: ", i)
			}
			return out
		}
		req, err := scanLine(frame)
		if err != nil {
			out.fail = fmt.Sprintf("line %d: ", i)
			return out
		}
		if err := validateJob(&req, maxSeqLen); err != nil {
			out.fail, out.exact = fmt.Sprintf("line %d: %v", i, err), true
			return out
		}
		out.jobs = append(out.jobs, req)
	}
}

// --- Scanner vs library ------------------------------------------------------

func sameJobs(a, b []core.Request) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d jobs, oracle %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Q, b[i].Q) || !bytes.Equal(a[i].T, b[i].T) || a[i].H0 != b[i].H0 {
			return fmt.Errorf("job %d: %v, oracle %v", i, a[i], b[i])
		}
	}
	return nil
}

// checkScan holds the three scanners to the library on one body: same
// accept/reject, and on accept the same items and deadline.
func checkScan(t *testing.T, body []byte, maxSeqLen int) {
	t.Helper()
	wb := getWire()
	defer putWire(wb)
	wb.body = append(wb.body[:0], body...)

	var eq ExtendRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&eq)
	jobs, deadline, err := wb.scanExtend()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("extend %q: scan error %v, encoding/json %v", body, err, wantErr)
	}
	if err == nil {
		want := make([]core.Request, len(eq.Jobs))
		for i, j := range eq.Jobs {
			want[i] = oraclePayload(j)
		}
		if err := sameJobs(jobs, want); err != nil {
			t.Fatalf("extend %q: %v", body, err)
		}
		if deadline != eq.DeadlineMs {
			t.Fatalf("extend %q: deadline_ms %d, oracle %d", body, deadline, eq.DeadlineMs)
		}
	}

	var mq MapRequest
	wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&mq)
	reads, deadline, err := wb.scanMap()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("map %q: scan error %v, encoding/json %v", body, err, wantErr)
	}
	if err == nil {
		if len(reads) != len(mq.Reads) {
			t.Fatalf("map %q: %d reads, oracle %d", body, len(reads), len(mq.Reads))
		}
		for i, rd := range mq.Reads {
			want, got := oracleRead(rd), reads[i]
			if !bytes.Equal(got.name, want.name) || !bytes.Equal(got.seq, want.seq) || !bytes.Equal(got.qual, want.qual) || (got.qual == nil) != (want.qual == nil) {
				t.Fatalf("map %q: read %d is %q %v %q, oracle %q %v %q", body, i, got.name, got.seq, got.qual, want.name, want.seq, want.qual)
			}
		}
		if deadline != mq.DeadlineMs {
			t.Fatalf("map %q: deadline_ms %d, oracle %d", body, deadline, mq.DeadlineMs)
		}
	}

	got, want := wireStream(body, maxSeqLen), oracleStream(body, maxSeqLen)
	if err := sameJobs(got.jobs, want.jobs); err != nil {
		t.Fatalf("stream %q: %v", body, err)
	}
	if got.fail != want.fail || got.exact != want.exact {
		t.Fatalf("stream %q: ends %q, oracle %q", body, got.fail, want.fail)
	}
}

// wireServer is the tiny-limits server FuzzWireDecode drives, for holding
// the handlers' verdicts to the oracle's.
func wireServer(tb testing.TB) *Server {
	store := openRefStore(tb, genome.Simulate(genome.SimConfig{Length: 2_000}, rand.New(rand.NewSource(4))))
	s := New(storeConfig(store, Config{
		Extender:          core.New(20),
		Batch:             BatcherConfig{MaxBatch: 8, FlushInterval: FlushOpportunistic, Workers: 2},
		MaxJobsPerRequest: 8,
		MaxSeqLen:         64,
		MaxBodyBytes:      1 << 10,
	}))
	tb.Cleanup(s.Close)
	return s
}

// checkVerdict posts body to both batch endpoints and holds status and
// error message to the old path's.
func checkVerdict(t *testing.T, s *Server, body []byte) {
	t.Helper()
	for _, path := range []string{"/v1/extend", "/v1/map"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		var e errorBody
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s %q: status %d with body %q", path, body, rec.Code, rec.Body)
			}
		}
		if want := oracleVerdict(path, body, s.cfg); !want.matches(rec.Code, e.Error) {
			t.Fatalf("%s %q: answered %d %q, the old path %d %q", path, body, rec.Code, e.Error, want.status, want.msg)
		}
	}
}

var wireSeeds = []string{
	// Escapes and non-ASCII inside sequences and names.
	`{"jobs":[{"query":"AC\u0047T","target":"A\/C\b\f\n\r\t\"\\","h0":3}]}`,
	`{"jobs":[{"query":"AC\ud83d\ude00T\ude00\ud83dA","target":"\ud800","h0":3}]}`,
	"{\"jobs\":[{\"query\":\"AC\xffGT\",\"target\":\"\xc3\xa9acgtn\",\"h0\":3}]}",
	"{\"jobs\":[{\"query\":\"AC\x01GT\",\"target\":\"ACGT\"}]}",
	`{"reads":[{"name":"r\u0041","seq":"AC\u0047T","qual":"I<>\u0026"}]}`,
	"{\"reads\":[{\"name\":\"r\xff\",\"seq\":\"ACGT\"}]}",
	// null on each field, and as items and bodies.
	`{"jobs":[{"query":null,"target":"ACGT","h0":null}],"deadline_ms":null}`,
	`{"jobs":[null,{"query":"A","target":"C"}]}`,
	`{"jobs":null}`,
	`null`,
	`{"reads":[{"name":null,"seq":null,"qual":null}]}`,
	// Field folding and duplicate keys.
	`{"JOBS":[{"Query":"ACGT","TARGET":"ACGT","H0":1}],"Deadline_MS":5}`,
	`{"jobſ":[{"query":"ACGT","target":"ACGT"}]}`,
	`{"j\u006fbs":[{"quer\u0079":"ACGT","target":"ACGT"}],"deadline_m\u017f":7}`,
	`{"jobs":[{"query":"A","query":"C","target":"G","h0":1,"h0":2}]}`,
	`{"jobs":[{"query":"A","target":"C","h0":5},{"query":"G","target":"T"}],"jobs":[{"query":"T"}]}`,
	`{"jobs":[{"query":"A","target":"C"}],"jobs":[],"jobs":[{"query":"T"}]}`,
	`{"jobs":[{"query":"A","target":"C"}],"jobs":null,"jobs":[{"target":"T"}]}`,
	`{"reads":[{"name":"a","seq":"ACGT"},{"name":"b","seq":"AC"}],"reads":[{"qual":"IIII"}]}`,
	// What an int field takes.
	`{"jobs":[{"query":"A","target":"C","h0":1.0}]}`,
	`{"jobs":[{"query":"A","target":"C","h0":1e2}]}`,
	`{"jobs":[{"query":"A","target":"C","h0":"5"}]}`,
	`{"jobs":[{"query":"A","target":"C","h0":99999999999999999999}]}`,
	`{"jobs":[{"query":"A","target":"C","h0":-9223372036854775808}]}`,
	`{"jobs":[{"query":"A","target":"C","h0":-0}]}`,
	`{"jobs":[{"query":"A","target":"C","h0":01}]}`,
	`{"jobs":[{"query":"A","target":"C","h0":-}]}`,
	// Wrong types, nested unknown values, trailing junk.
	`{"jobs":{"query":"A"}}`,
	`{"jobs":[5]}`,
	`{"jobs":[{"query":5,"target":"C"}]}`,
	`[]`,
	`{"x":{"a":[1,2.5e-3,{"b":null}],"c":"é\n"},"jobs":[{"query":"A","target":"C","y":[[],{}]}]}`,
	`{"x":[1,],"jobs":[{"query":"A","target":"C"}]}`,
	`{"jobs":[{"query":"A","target":"C"}]}} trailing`,
	`{"jobs":[{"query":"A","target":"C"}]}{"jobs":`,
	` {"query" : "ACGT" , "target" : "ACGT" } {"query":"AC","target":"ACG","h0":1}[1]`,
	"nullnull",
	"{\"query\":\"ACGT\",\"target\":\"ACGT\"}\n5\n",
}

// wireDeepSeeds sit either side of encoding/json's nesting limit. They stay
// out of the fuzz corpus: minimizing a 20 KB input stalls the engine.
var wireDeepSeeds = []string{
	strings.Repeat("[", 10001),
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"jobs":[{"query":"A","target":"C"}]}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"jobs":[{"query":"A","target":"C"}]}`,
	`{"jobs":[{"x":` + strings.Repeat("[", 9997) + `1` + strings.Repeat("]", 9997) + `,"query":"A","target":"C"}]}`,
	`{"jobs":[{"x":` + strings.Repeat("[", 9998) + `1` + strings.Repeat("]", 9998) + `,"query":"A","target":"C"}]}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000),
}

// FuzzWireScan holds the scanners and the batch handlers to the
// encoding/json + genome.Encode path on arbitrary bytes.
func FuzzWireScan(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{ // FuzzWireDecode's corpus
		`{}`,
		`{"jobs":[{"query":"ACGT"}]}`,
		`{"jobs":[{"query":"` + strings.Repeat("A", 200) + `","target":"ACGT"}]}`,
		`{"jobs":[{"query":"ACGT","target":"ACGT","h0":-1}]}`,
		`{not json`,
		`{"reads":[{"name":"r"}]}`,
		`{"reads":[{"name":"r","seq":"ACGT","qual":"II"}]}`,
		`{"reads":[{"name":"r\t4\tchrT","seq":"ACGT"}]}`,
		`{"reads":[{"name":"r\n@SQ\tSN:x","seq":"ACGT"}]}`,
		`{"reads":[{"name":"","seq":"ACGT"}]}`,
		`{"reads":[{"name":"r","seq":"ACGT","qual":"I\tII"}]}`,
		`{"jobs":[{"query":"ACGTACGT","target":"ACGTTACGT","h0":10}],"deadline_ms":1000}`,
		`{"reads":[{"name":"r1","seq":"ACGTACGTACGTACGTACGTACGT","qual":"IIIIIIIIIIIIIIIIIIIIIIII"}]}`,
		"{\"query\":\"ACGT\",\"target\":\"ACGT\",\"h0\":5}\n{\"query\":\"AC\",\"target\":\"ACG\",\"h0\":1}\n",
		"{\"query\":\"ACGT\",\"target\":\"ACGT\",\"h0\":5}\n{\"query\":\"\"}\n",
	} {
		f.Add([]byte(seed))
	}
	s := wireServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan(t, body, s.cfg.MaxSeqLen)
		checkVerdict(t, s, body)
	})
}

// TestWireScanSeeds runs the fuzz seeds, and every truncation of the valid
// bodies among them, as a plain test.
func TestWireScanSeeds(t *testing.T) {
	s := wireServer(t)
	for _, seed := range append(wireDeepSeeds, wireSeeds...) {
		checkScan(t, []byte(seed), s.cfg.MaxSeqLen)
		checkVerdict(t, s, []byte(seed))
	}
	for _, body := range []string{
		`{"jobs":[{"query":"ACGTACGT","target":"ACGTTACGT","h0":10},{"x":[1,{"y":null}],"query":"AC","target":"ACG","h0":-0}],"deadline_ms":1000}`,
		`{"reads":[{"name":"r1","seq":"ACGTACGTACGT","qual":"IIII<>&IIIII"},{"name":"r2","seq":"ACGT"}],"deadline_ms":250} `,
		"{\"query\":\"ACGT\",\"target\":\"ACGT\",\"h0\":5}\n {\"h0\":1e0}\n",
		"null\n",
	} {
		for k := 0; k <= len(body); k++ {
			checkScan(t, []byte(body[:k]), s.cfg.MaxSeqLen)
			checkVerdict(t, s, []byte(body[:k]))
		}
	}
}

// TestWireBodyLimit pins the 413 surface, the one deliberate tightening
// included: a body over MaxBodyBytes is refused even when its first value
// ends inside the limit, whether or not its length was declared.
func TestWireBodyLimit(t *testing.T) {
	s := wireServer(t)
	ok := `{"jobs":[{"query":"ACGT","target":"ACGT","h0":5}]}`
	for _, c := range []struct {
		body string
		want int
	}{
		{ok, http.StatusOK},
		{ok + strings.Repeat(" ", 1<<10-len(ok)), http.StatusOK},
		{ok + strings.Repeat(" ", 1<<10-len(ok)+1), http.StatusRequestEntityTooLarge},
		{ok + strings.Repeat("x", 2<<10), http.StatusRequestEntityTooLarge},
	} {
		for _, declared := range []bool{true, false} {
			req := httptest.NewRequest(http.MethodPost, "/v1/extend", strings.NewReader(c.body))
			if !declared {
				req = httptest.NewRequest(http.MethodPost, "/v1/extend", io.MultiReader(strings.NewReader(c.body)))
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != c.want {
				t.Fatalf("%d-byte body (length declared: %v): status %d, want %d", len(c.body), declared, rec.Code, c.want)
			}
		}
	}
}

// --- Replies vs library ------------------------------------------------------

// replyCases derives results from raw bytes: every int from a byte pair so
// signs and zeros occur, every string an arbitrary chunk.
func replyCases(raw []byte) ([]ExtendResult, []MapResult) {
	next := func(n int) []byte {
		n = min(n, len(raw))
		chunk := raw[:n]
		raw = raw[n:]
		return chunk
	}
	num := func() int {
		b := append(next(2), 0, 0)
		return int(int16(uint16(b[0])<<8|uint16(b[1]))) * 7919
	}
	str := func() string {
		b := append(next(1), 0)
		return string(next(int(b[0]) % 24))
	}
	var ext []ExtendResult
	var mapped []MapResult
	for len(raw) > 0 {
		flags := append(next(1), 0)[0]
		ext = append(ext, ExtendResult{num(), num(), num(), num(), num(), int64(num()) << 20, flags&1 != 0})
		mapped = append(mapped, MapResult{str(), flags&2 != 0, str(), num() * int(flags>>2&1), flags&8 != 0, num(), num(), str(), str()})
	}
	return ext, mapped
}

func checkReply(t *testing.T, raw []byte) {
	t.Helper()
	ext, mapped := replyCases(raw)
	if got, want := appendExtendReply(nil, ext), oracleEncode(ExtendResponse{ext}); !bytes.Equal(got, want) {
		t.Fatalf("extend reply\n got %s\nwant %s", got, want)
	}
	if got, want := appendMapReply(nil, mapped), oracleEncode(MapResponse{mapped}); !bytes.Equal(got, want) {
		t.Fatalf("map reply\n got %s\nwant %s", got, want)
	}
	for i := range ext { // a stream's result lines
		if got, want := append(appendExtendResult(nil, &ext[i]), '\n'), oracleEncode(ext[i]); !bytes.Equal(got, want) {
			t.Fatalf("stream line\n got %s\nwant %s", got, want)
		}
	}
}

var replySeeds = []string{
	"",
	"\x00",
	"\x03\x00\x01\xff\xff\x80\x00\x7f\xff\x00\x00\x12\x34\x05read1\x04chr1",
	"\x0f\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x06a\"b\\c\n\x05<>&\x7f\x00",
	"\x02\x00\x01\x00\x02\x00\x03\x00\x04\x00\x05\x00\x06\x08\xe2\x80\xa8\xe2\x80\xa9\xc3\xa9\x07\xff\xfe\x01\x08\x0c\x1f\xed\xa0\x80",
}

// FuzzWireReply holds the reply renderers to json.Encoder byte for byte.
func FuzzWireReply(f *testing.F) {
	for _, seed := range replySeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) { checkReply(t, raw) })
}

func TestWireReply(t *testing.T) {
	for _, seed := range replySeeds {
		checkReply(t, []byte(seed))
	}
	// Every byte value inside a string, alone and after a multi-byte lead.
	for c := 0; c < 256; c++ {
		for _, s := range []string{string([]byte{byte(c)}), string([]byte{'a', 0xe2, 0x80, byte(c), 'z'})} {
			res := []MapResult{{Name: s, RName: s, Cigar: s, Sam: s, Mapped: true, Pos: c, Rev: c&1 != 0}}
			if got, want := appendMapReply(nil, res), oracleEncode(MapResponse{res}); !bytes.Equal(got, want) {
				t.Fatalf("byte %#02x\n got %s\nwant %s", c, got, want)
			}
		}
	}
	// The slices json renders as null and as [].
	if got, want := appendExtendReply(nil, nil), oracleEncode(ExtendResponse{}); !bytes.Equal(got, want) {
		t.Fatalf("nil results: got %s want %s", got, want)
	}
	if got, want := appendMapReply(nil, []MapResult{}), oracleEncode(MapResponse{[]MapResult{}}); !bytes.Equal(got, want) {
		t.Fatalf("empty results: got %s want %s", got, want)
	}
}

// TestMapReplyFields holds every field of a served MapResult — not only the
// SAM line — to what the mapper returns for the same read.
func TestMapReplyFields(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ref := genome.Simulate(genome.SimConfig{Length: 30_000}, rng)
	se := core.New(20)
	a, err := bwamem.New("chrT", ref, se)
	if err != nil {
		t.Fatal(err)
	}
	req := MapRequest{}
	var reads []bwamem.Read
	for i, r := range readsim.Simulate(ref, readsim.DefaultConfig(24), rng) {
		if i%8 == 7 { // some that map nowhere
			r.Seq = genome.Simulate(genome.SimConfig{Length: len(r.Seq)}, rng)
		}
		reads = append(reads, bwamem.Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual})
		req.Reads = append(req.Reads, MapRead{Name: r.ID, Seq: genome.Decode(r.Seq), Qual: string(r.Qual)})
	}
	_, url := newStoreServer(t, openRefStore(t, ref), Config{Extender: se})
	resp := postJSON(t, url+"/v1/map", req)
	defer resp.Body.Close()
	var out MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Results) != len(reads) {
		t.Fatalf("status %d, %d results, %v", resp.StatusCode, len(out.Results), err)
	}
	m := a.NewMapper()
	unmapped := 0
	for i, rd := range reads {
		rec, al := m.Map(rd.Name, rd.Seq, rd.Qual)
		want := MapResult{rd.Name, al.Mapped, rec.RName, rec.Pos, al.Rev, al.MapQ, al.Score, al.Cigar.String(), rec.String()}
		if out.Results[i] != want {
			t.Fatalf("read %d:\nserved %+v\nmapper %+v", i, out.Results[i], want)
		}
		if !al.Mapped {
			unmapped++
		}
	}
	if unmapped == 0 || unmapped == len(reads) {
		t.Fatalf("%d of %d reads unmapped: the test wants both kinds", unmapped, len(reads))
	}
}

// --- Allocation and lifetime -------------------------------------------------

func extendBodyOf(n, qlen int, seed int64) []byte {
	body, _ := json.Marshal(ExtendRequest{Jobs: testProblems(n, qlen, seed)})
	return body
}

func mapBodyOf(n, readLen int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	req := MapRequest{}
	for i := 0; i < n; i++ {
		seq := genome.Decode(genome.Simulate(genome.SimConfig{Length: readLen}, rng))
		req.Reads = append(req.Reads, MapRead{Name: fmt.Sprintf("read%04d", i), Seq: seq, Qual: strings.Repeat("I<5&", readLen/4)})
	}
	body, _ := json.Marshal(req)
	return body
}

// TestWireZeroAlloc pins the steady state of the codec: scanning a body and
// rendering its reply in a warmed wireBuf allocates nothing.
func TestWireZeroAlloc(t *testing.T) {
	wb := new(wireBuf)
	wb.body = extendBodyOf(256, 120, 5)
	extRes := make([]ExtendResult, 256)
	for i := range extRes {
		extRes[i] = ExtendResult{Local: 100 + i, LocalT: i, LocalQ: i, Global: -i, GlobalT: i, Cells: int64(i) << 8, Rerun: i%10 == 0}
	}
	if n := testing.AllocsPerRun(50, func() {
		jobs, _, err := wb.scanExtend()
		if err != nil || len(jobs) != 256 {
			t.Fatalf("scan: %d jobs, %v", len(jobs), err)
		}
		wb.out = appendExtendReply(wb.out[:0], extRes)
	}); n != 0 {
		t.Fatalf("extend scan + reply allocates %.1f times per request, want 0", n)
	}

	wb.body = mapBodyOf(16, 148, 6)
	mapRes := make([]MapResult, 16)
	for i := range mapRes {
		mapRes[i] = MapResult{Name: "read", Mapped: true, RName: "chr<1>", Pos: 1 + i, Rev: i&1 != 0, MapQ: 60, Score: 140, Cigar: "148M",
			Sam: "read\t0\tchr<1>\t1\t60\t148M\t*\t0\t0\t" + strings.Repeat("ACGT", 37) + "\t" + strings.Repeat("I<5&", 37)}
	}
	if n := testing.AllocsPerRun(50, func() {
		reads, _, err := wb.scanMap()
		if err != nil || len(reads) != 16 {
			t.Fatalf("scan: %d reads, %v", len(reads), err)
		}
		wb.out = appendMapReply(wb.out[:0], mapRes)
	}); n != 0 {
		t.Fatalf("map scan + reply allocates %.1f times per request, want 0", n)
	}
}

// TestEnginesLeaveSequencesAlone pins what lets queued jobs alias the
// request's arena: neither the extension engines nor the mapper write
// through the sequences they are handed.
func TestEnginesLeaveSequencesAlone(t *testing.T) {
	var reqs, kept []core.Request
	for _, j := range testProblems(64, 120, 21) {
		reqs, kept = append(reqs, oraclePayload(j)), append(kept, oraclePayload(j))
	}
	paper := core.New(20)
	paper.Config.Mode = core.ModePaper
	for name, ext := range map[string]align.Extender{"strict": core.New(20), "paper": paper, "fullband": core.FullBand{Scoring: align.DefaultScoring()}} {
		core.EngineSession(ext).ExtendBatchInto(reqs, nil)
		if err := sameJobs(reqs, kept); err != nil {
			t.Fatalf("%s engine wrote through its input: %v", name, err)
		}
	}

	rng := rand.New(rand.NewSource(22))
	ref := genome.Simulate(genome.SimConfig{Length: 20_000}, rng)
	a, err := bwamem.New("chrT", ref, core.New(20))
	if err != nil {
		t.Fatal(err)
	}
	var reads []bwamem.Read
	var seqs [][]byte
	for i := 0; i < 16; i++ {
		at := rng.Intn(len(ref) - 150)
		seq := append([]byte(nil), ref[at:at+150]...)
		if i%2 == 1 {
			seq = genome.RevComp(seq)
		}
		seqs = append(seqs, append([]byte(nil), seq...))
		reads = append(reads, bwamem.Read{Name: "r", Seq: seq, Qual: bytes.Repeat([]byte("I"), 150)})
	}
	a.NewMapper().MapBatch(reads)
	for i, rd := range reads {
		if !bytes.Equal(rd.Seq, seqs[i]) || !bytes.Equal(rd.Qual, bytes.Repeat([]byte("I"), 150)) {
			t.Fatalf("mapper wrote through read %d", i)
		}
	}
}

// heldExtender parks the first extension it is asked for until released and
// notes what its sequences held once it went on.
type heldExtender struct {
	align.Extender
	once     sync.Once
	entered  chan struct{}
	release  chan struct{}
	sawQ     []byte
	sawT     []byte
	finished chan struct{}
}

func (h *heldExtender) Extend(q, t []byte, h0 int) align.ExtendResult {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
		h.sawQ, h.sawT = append([]byte(nil), q...), append([]byte(nil), t...)
		close(h.finished)
	})
	return h.Extender.Extend(q, t, h0)
}

// TestArenaNotRecycledInFlight answers a request 504 while one of its jobs
// is held inside the engine, then serves requests that would scan into its
// wireBuf had it gone back to the pool. When the held job goes on it must
// still find its own bytes, and the later requests their own results.
func TestArenaNotRecycledInFlight(t *testing.T) {
	held := &heldExtender{Extender: core.FullBand{Scoring: align.DefaultScoring()},
		entered: make(chan struct{}), release: make(chan struct{}), finished: make(chan struct{})}
	s, ts := newTestServer(t, Config{
		Extender: held,
		Batch:    BatcherConfig{MaxBatch: 4, FlushInterval: FlushOpportunistic, Workers: 1},
	})
	// Same lengths throughout, so a recycled arena would be overwritten
	// exactly where the held job's sequences lie.
	jobsOf := func(base string) []ExtendJob {
		jobs := make([]ExtendJob, 4)
		for i := range jobs {
			jobs[i] = ExtendJob{Query: strings.Repeat(base, 40), Target: strings.Repeat(base, 50), H0: 10}
		}
		return jobs
	}
	lateReply := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobsOf("A"), DeadlineMs: 50})
		resp.Body.Close()
		lateReply <- resp.StatusCode
	}()
	select {
	case <-held.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no job reached the engine")
	}
	if status := <-lateReply; status != http.StatusGatewayTimeout {
		t.Fatalf("held request answered %d, want 504", status)
	}

	// The worker is still held: these scan, queue and wait.
	const later = 6
	accepted := s.Metrics().Accepted.Load()
	var wg sync.WaitGroup
	for i := 0; i < later; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verifyExtend(t, ts.URL, jobsOf("C"))
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); s.Metrics().Accepted.Load() < accepted+4*later; {
		if time.Now().After(deadline) {
			t.Fatal("later requests never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(held.release)
	<-held.finished
	wg.Wait()
	if want := oraclePayload(jobsOf("A")[0]); !bytes.Equal(held.sawQ, want.Q) || !bytes.Equal(held.sawT, want.T) {
		t.Fatalf("the held job computed on another request's bytes:\n query %v\ntarget %v", held.sawQ, held.sawT)
	}
}

// --- Benchmarks --------------------------------------------------------------

func benchScan[P any](b *testing.B, body []byte, scan func(*wireBuf) ([]P, int, error), oracle func([]byte) int) {
	b.Run("scanner", func(b *testing.B) {
		wb := &wireBuf{body: body}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if items, _, err := scan(wb); err != nil || len(items) == 0 {
				b.Fatal(len(items), err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if oracle(body) == 0 {
				b.Fatal("oracle decoded nothing")
			}
		}
	})
}

func oracleScanExtend(body []byte) int {
	var q ExtendRequest
	json.NewDecoder(bytes.NewReader(body)).Decode(&q)
	for _, j := range q.Jobs {
		oraclePayload(j)
	}
	return len(q.Jobs)
}

func oracleScanMap(body []byte) int {
	var q MapRequest
	json.NewDecoder(bytes.NewReader(body)).Decode(&q)
	for _, rd := range q.Reads {
		oracleRead(rd)
	}
	return len(q.Reads)
}

func BenchmarkWireScanExtend256(b *testing.B) {
	benchScan(b, extendBodyOf(256, 120, 5), (*wireBuf).scanExtend, oracleScanExtend)
}

func BenchmarkWireScanExtend4(b *testing.B) {
	benchScan(b, extendBodyOf(4, 120, 5), (*wireBuf).scanExtend, oracleScanExtend)
}

func BenchmarkWireScanMap16(b *testing.B) {
	benchScan(b, mapBodyOf(16, 148, 6), (*wireBuf).scanMap, oracleScanMap)
}

func benchReply[R any](b *testing.B, res []R, appendTo func([]byte, []R) []byte, wrap func([]R) any) {
	size := int64(len(appendTo(nil, res)))
	b.Run("append", func(b *testing.B) {
		var out []byte
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = appendTo(out[:0], res)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.NewEncoder(io.Discard).Encode(wrap(res))
		}
	})
}

func BenchmarkWireReplyExtend256(b *testing.B) {
	res := make([]ExtendResult, 256)
	for i := range res {
		res[i] = ExtendResult{Local: 100 + i, LocalT: 120 + i, LocalQ: 119, Global: 90 - i, GlobalT: 144, Cells: int64(5000 + 17*i), Rerun: i%10 == 0}
	}
	benchReply(b, res, appendExtendReply, func(r []ExtendResult) any { return ExtendResponse{r} })
}

func BenchmarkWireReplyMap16(b *testing.B) {
	res := make([]MapResult, 16)
	for i := range res {
		res[i] = MapResult{Name: "read0001", Mapped: true, RName: "chrT", Pos: 1000 + i, MapQ: 60, Score: 140, Cigar: "148M",
			Sam: "read0001\t0\tchrT\t1000\t60\t148M\t*\t0\t0\t" + strings.Repeat("ACGT", 37) + "\t" + strings.Repeat("I<5&", 37) + "\tAS:i:140\tXS:i:0"}
	}
	benchReply(b, res, appendMapReply, func(r []MapResult) any { return MapResponse{r} })
}
