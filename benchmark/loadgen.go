package main

// loadgen.go is the closed-loop load generator and the oracle check: a
// fixed number of keep-alive connections, each sending its next request
// only when the previous reply has been read and compared.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reply side of the wire format: the compared fields only. cells,
// rerun and sam are implementation detail and are not decoded.
type (
	wireExtendResult struct {
		Local   int `json:"local"`
		LocalT  int `json:"local_t"`
		LocalQ  int `json:"local_q"`
		Global  int `json:"global"`
		GlobalT int `json:"global_t"`
	}
	wireExtendResponse struct {
		Results []wireExtendResult `json:"results"`
	}
	wireMapResult struct {
		Mapped bool   `json:"mapped"`
		RName  string `json:"rname"`
		Pos    int    `json:"pos"`
		Rev    bool   `json:"rev"`
		MapQ   int    `json:"mapq"`
		Score  int    `json:"score"`
		Cigar  string `json:"cigar"`
	}
	wireMapResponse struct {
		Results []wireMapResult `json:"results"`
	}
)

// checkExtend returns how many of the request's jobs the reply got wrong.
// A reply that is not a 200 with one result per job fails every job.
// Strict-mode daemons promise all five fields; paper mode promises the
// local triple only.
func checkExtend(status int, body []byte, want []extExpect, strict bool) int {
	var resp wireExtendResponse
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(want) {
		return len(want)
	}
	failed := 0
	for i, r := range resp.Results {
		got := extExpect(r)
		if !strict {
			got.Global, got.GlobalT = want[i].Global, want[i].GlobalT
		}
		if got != want[i] {
			failed++
		}
	}
	return failed
}

// checkMap returns how many of the request's reads the reply got wrong.
func checkMap(status int, body []byte, want []mapExpect) int {
	var resp wireMapResponse
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(want) {
		return len(want)
	}
	failed := 0
	for i, r := range resp.Results {
		if mapExpect(r) != want[i] {
			failed++
		}
	}
	return failed
}

// checker returns the oracle check for the workload's traffic on one
// endpoint: request index in, failed ops out.
func (w *workload) checker(tr traffic) func(i, status int, body []byte) int {
	if tr.path == mapPath {
		return func(i, status int, body []byte) int {
			return checkMap(status, body, w.mapExpects[i*tr.perReq:(i+1)*tr.perReq])
		}
	}
	return func(i, status int, body []byte) int {
		return checkExtend(status, body, w.extExpects[i*tr.perReq:(i+1)*tr.perReq], !w.spec.paper)
	}
}

// sample is one completed request: when it was sent and fully read,
// relative to the start of the run, and how many of its ops were right.
type sample struct {
	start, end time.Duration
	good       int
}

type loadResult struct {
	samples   []sample
	attempted int // ops
	failed    int // ops: errored, refused, or different from the oracle
	firstErr  error
}

// caller is one closed-loop caller: one keep-alive connection used
// synchronously, request written and reply read on the caller's own
// goroutine. net/http's client would put two more goroutines and two
// channel hand-offs between the caller and the socket; at the 7000
// requests/s of extend_small_obs those were most of the generator's CPU,
// and which core they happened to run on decided the result.
type caller struct {
	conn net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
}

func dial(addr string) (*caller, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &caller{conn: conn, br: bufio.NewReader(conn)}, nil
}

// wireRequest is the bytes of one HTTP/1.1 POST, written out once per body.
func wireRequest(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: seedex-serve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return append([]byte(head), body...)
}

// post sends one pre-built request and reads the whole reply; the body it
// returns is valid until the next call.
func (c *caller) post(wire []byte) (int, []byte, error) {
	// Nothing here takes a minute unless the daemon hangs, and then the
	// run must end with an error instead of hanging with it.
	c.conn.SetDeadline(time.Now().Add(time.Minute))
	if _, err := c.conn.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *caller) close() { c.conn.Close() }

// runLoad drives tr against the daemon at addr with `clients` closed-loop
// callers. The callers take the bodies in rotation off one counter, so no
// two are ever on the same body and a fixed request count sends a fixed
// list of requests. It stops after maxRequests requests (when positive) or
// when `window` has passed (when positive); requests in flight at that
// moment are completed and counted.
func runLoad(ctx context.Context, addr string, tr traffic, check func(i, status int, body []byte) int,
	clients, maxRequests int, window time.Duration) loadResult {
	var issued atomic.Int64
	results := make([]loadResult, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			conn, err := dial(addr)
			if err != nil {
				res.firstErr = err
				return
			}
			defer conn.close()
			for ctx.Err() == nil && (window <= 0 || time.Since(t0) < window) {
				n := int(issued.Add(1)) - 1
				if maxRequests > 0 && n >= maxRequests {
					return
				}
				i := n % len(tr.wire)
				start := time.Since(t0)
				status, reply, err := conn.post(tr.wire[i])
				end := time.Since(t0)
				bad := tr.perReq
				if err == nil {
					bad = check(i, status, reply)
				}
				if bad > 0 && res.firstErr == nil {
					if err == nil {
						err = fmt.Errorf("%s body %d: status %d, %d of %d ops differ from the oracle: %.200s",
							tr.path, i, status, bad, tr.perReq, reply)
					}
					res.firstErr = err
				}
				res.attempted += tr.perReq
				res.failed += bad
				res.samples = append(res.samples, sample{start, end, tr.perReq - bad})
				if err != nil {
					// The connection is in an unknown state; a dead daemon
					// must not turn into a busy loop of failures.
					return
				}
			}
		}()
	}
	wg.Wait()
	var out loadResult
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	if out.attempted == 0 && out.firstErr != nil {
		out.failed = 1 // no caller got a connection: not an empty success
	}
	return out
}

// The traffic metrics are taken over the fastest stretch of the window.
//
// On the shared two-core VM this runs on, the whole program alternates
// between two speeds: its own, and about 0.6 of it (every function alike,
// in CPU profiles taken in and out of such a stretch; the level is the
// same to within a few percent every time, which is what a neighbour on
// the sibling hyperthread looks like). Slow stretches last from a tenth of
// a second to minutes and in a bad quarter of an hour cover most of the
// time, so the median of a window measures the neighbour. Interference
// only ever slows the program down, so the fastest slices are the ones
// that measure it: the window is cut into slices wide enough for
// sliceRequests requests each, and the slices within `plateau` of the
// fastest one are kept. loadgen.slow_slice_share says how much of the
// window was left out, whatever the cause.
const (
	minSliceWidth = 50 * time.Millisecond
	maxSliceWidth = 500 * time.Millisecond
	sliceRequests = 30
	plateau       = 0.07
	minKeptSlices = 3
)

// sliceRates spreads each request's correct ops evenly over the time it
// was in flight and returns ops/s per slice of the window, so that a
// request of 256 ops straddling a slice edge is not a step in the count.
func sliceRates(samples []sample, window time.Duration, slices int) []float64 {
	width := window / time.Duration(slices)
	ops := make([]float64, slices)
	for _, s := range samples {
		dur := s.end - s.start
		for k := range ops {
			lo, hi := max(s.start, time.Duration(k)*width), min(s.end, time.Duration(k+1)*width)
			if hi > lo {
				ops[k] += float64(s.good) * float64(hi-lo) / float64(dur)
			}
		}
	}
	for k := range ops {
		ops[k] /= width.Seconds()
	}
	return ops
}

type steady struct {
	rates        []float64 // ops/s of every slice, in time order
	kept         []sample  // requests that completed in a kept slice
	opsPerSecond float64   // mean rate of the kept slices
	slowShare    float64   // share of the slices not kept
}

// steadyPart picks the slices of the window that ran at full speed.
func steadyPart(samples []sample, window time.Duration) steady {
	width := window
	if len(samples) > 0 {
		width = window * sliceRequests / time.Duration(len(samples))
	}
	n := max(minKeptSlices, int(window/min(max(width, minSliceWidth), maxSliceWidth)))
	width = window / time.Duration(n)
	st := steady{rates: sliceRates(samples, window, n)}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return st.rates[order[a]] > st.rates[order[b]] })
	keep := make([]bool, n)
	kept := 0
	for _, k := range order {
		if kept >= minKeptSlices && st.rates[k] < (1-plateau)*st.rates[order[0]] {
			break
		}
		keep[k] = true
		kept++
		st.opsPerSecond += st.rates[k]
	}
	st.opsPerSecond /= float64(kept)
	st.slowShare = 1 - float64(kept)/float64(n)
	for _, s := range samples {
		if k := int(s.end / width); k < n && keep[k] {
			st.kept = append(st.kept, s)
		}
	}
	return st
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v (0 < q <= 1).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// tailMean is the mean of the values between the 90th and the 99th
// percentile: the slowest tenth without the slowest hundredth. It is the
// tail metric because a single high percentile sits on a knife edge when
// the distribution has a second mode of about that mass — map_reads has
// one, 5-6% of its requests wait one batch longer, and its p95 read 24 ms
// or 31 ms depending on the seed — and because the top hundredth of a few
// hundred requests is one to three samples.
func tailMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo := len(s) * 90 / 100
	hi := max(lo+1, len(s)*99/100)
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.end-s.start) / float64(time.Millisecond)
	}
	return out
}
