package server

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"seedex/internal/core"
	"seedex/internal/genome"
)

// FuzzWireDecode throws arbitrary bytes at the three job endpoints of a
// server with tiny body and sequence bounds. Whatever the body, a handler
// must not panic, must answer below 500 (a 504 only to a body that asked
// for a deadline), must reply JSON a client can tell apart from a result
// when it refuses, and after Close no goroutine the traffic started may be
// left behind.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range []string{
		// The TestBadInput bodies.
		`{}`,
		`{"jobs":[{"query":"ACGT"}]}`,
		`{"jobs":[{"query":"` + strings.Repeat("A", 200) + `","target":"ACGT"}]}`,
		`{"jobs":[{"query":"ACGT","target":"ACGT","h0":-1}]}`,
		`{not json`,
		`{"reads":[{"name":"r"}]}`,
		`{"reads":[{"name":"r","seq":"ACGT","qual":"II"}]}`,
		// SAM injection through the read name and the qualities.
		`{"reads":[{"name":"r\t4\tchrT","seq":"ACGT"}]}`,
		`{"reads":[{"name":"r\n@SQ\tSN:x","seq":"ACGT"}]}`,
		`{"reads":[{"name":"","seq":"ACGT"}]}`,
		`{"reads":[{"name":"r","seq":"ACGT","qual":"I\tII"}]}`,
		// Well-formed traffic for each endpoint, so mutations start inside
		// the accepting paths too.
		`{"jobs":[{"query":"ACGTACGT","target":"ACGTTACGT","h0":10}],"deadline_ms":1000}`,
		`{"reads":[{"name":"r1","seq":"ACGTACGTACGTACGTACGTACGT","qual":"IIIIIIIIIIIIIIIIIIIIIIII"}]}`,
		"{\"query\":\"ACGT\",\"target\":\"ACGT\",\"h0\":5}\n{\"query\":\"AC\",\"target\":\"ACG\",\"h0\":1}\n",
		"{\"query\":\"ACGT\",\"target\":\"ACGT\",\"h0\":5}\n{\"query\":\"\"}\n",
	} {
		f.Add([]byte(seed))
	}

	// programGoroutines lists, by header line ("goroutine N [state]:" minus
	// the state), the goroutines inside the program's packages other than
	// the caller — before the server starts, what other tests of this
	// process left running; after Close, those plus anything leaked.
	programGoroutines := func() map[string]string {
		out := map[string]string{}
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "seedex/internal/") && !strings.Contains(g, "FuzzWireDecode") {
				id, _, _ := strings.Cut(g, " [")
				out[id] = g
			}
		}
		return out
	}
	before := programGoroutines()
	store := openRefStore(f, genome.Simulate(genome.SimConfig{Length: 2_000}, rand.New(rand.NewSource(4))))
	s := New(storeConfig(store, Config{
		Extender:          core.New(20),
		Batch:             BatcherConfig{MaxBatch: 8, FlushInterval: FlushOpportunistic, Workers: 2},
		MaxJobsPerRequest: 8,
		MaxSeqLen:         64,
		MaxBodyBytes:      1 << 10,
	}))
	f.Cleanup(func() {
		s.Close()
		// Everything the server and the fuzzed requests started must wind
		// down. Goroutines exit asynchronously, so give them a moment.
		deadline := time.Now().Add(5 * time.Second)
		for {
			var left []string
			for id, g := range programGoroutines() {
				if _, old := before[id]; !old {
					left = append(left, g)
				}
			}
			if len(left) == 0 {
				return
			}
			if time.Now().After(deadline) {
				f.Errorf("%d goroutines still running after Close:\n%s", len(left), strings.Join(left, "\n\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/extend", "/v1/extend/stream", "/v1/map"} {
			// The context ends when the handler returns, as net/http's does.
			ctx, cancel := context.WithCancel(context.Background())
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.Handler().ServeHTTP(rec, req)
			}()
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("%s never answered %q:\n%s", path, body, buf[:runtime.Stack(buf, true)])
			}
			cancel()
			if rec.Code >= 500 && !(rec.Code == http.StatusGatewayTimeout && bytes.Contains(body, []byte("deadline_ms"))) {
				t.Fatalf("%s answered %d to %q: %s", path, rec.Code, body, rec.Body)
			}
			if rec.Code != http.StatusOK && !bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
				t.Fatalf("%s answered %d to %q without an error body: %s", path, rec.Code, body, rec.Body)
			}
		}
	})
}
