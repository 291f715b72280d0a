package server

import (
	"fmt"
	"strconv"
	"testing"
	"time"
)

// Edge-of-domain regression tests for the power-of-two histogram
// quantile estimator (satellite c): empty histograms, the exact-zero
// bucket, single-bucket interpolation, monotonicity, torn snapshots,
// and the Prometheus quantile gauges on a fresh server.

// TestQuantileEmptyHistogram: no observations report 0 everywhere, not
// NaN or the last bucket bound.
func TestQuantileEmptyHistogram(t *testing.T) {
	var h hist
	s := h.snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%g) = %g, want 0", q, got)
		}
	}
	if s.Mean() != 0 {
		t.Errorf("empty histogram Mean = %g, want 0", s.Mean())
	}
}

// TestQuantileExactZeroBucket: bucket 0 holds only exact zeros (clamped
// negatives included) and must never interpolate into (0, 1].
func TestQuantileExactZeroBucket(t *testing.T) {
	var h hist
	for i := 0; i < 10; i++ {
		h.observe(0)
	}
	h.observe(-5) // clamps into bucket 0
	s := h.snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("all-zero histogram Quantile(%g) = %g, want exactly 0", q, got)
		}
	}
}

// TestQuantileSingleBucket: with every observation in one bucket, the
// estimates stay inside that bucket's bounds and interpolation spreads
// them rather than collapsing to one value.
func TestQuantileSingleBucket(t *testing.T) {
	var h hist
	for i := 0; i < 100; i++ {
		h.observe(700) // bits.Len64(700) = 10: bucket [512, 1023]
	}
	s := h.snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := s.Quantile(q)
		if got < 512 || got > 1023 {
			t.Errorf("single-bucket Quantile(%g) = %g, escapes bucket [512, 1023]", q, got)
		}
	}
	if lo, hi := s.Quantile(0.01), s.Quantile(0.99); lo >= hi {
		t.Errorf("interpolation flat within the bucket: p1=%g p99=%g", lo, hi)
	}
}

// TestQuantileMonotone: p50 <= p90 <= p99 over a mixed distribution.
func TestQuantileMonotone(t *testing.T) {
	var h hist
	for _, v := range []int64{1, 3, 8, 17, 90, 90, 400, 1500, 1500, 64000} {
		for i := 0; i < 7; i++ {
			h.observe(v)
		}
	}
	s := h.snapshot()
	p50, p90, p99 := s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("quantiles not monotone: p50=%g p90=%g p99=%g", p50, p90, p99)
	}
	if p99 > 131071 { // top observation 64000 lives in bucket [65536-1 hi = 131071]
		t.Errorf("p99=%g beyond the top bucket bound", p99)
	}
}

// TestQuantileTornSnapshot: counts and n are read non-atomically under
// live traffic, so the rank can exceed the summed counts. The estimator
// must clamp to the last non-empty bucket's upper bound, not fall
// through to 0 or some other axis.
func TestQuantileTornSnapshot(t *testing.T) {
	s := histSnapshot{N: 100, Sum: 12345}
	s.Counts[3] = 4 // bucket 3 covers [4, 7]
	if got := s.Quantile(0.99); got != 7 {
		t.Errorf("torn snapshot Quantile(0.99) = %g, want 7 (last bucket hi)", got)
	}
	if got := s.Quantile(0.5); got != 7 {
		t.Errorf("torn snapshot Quantile(0.5) = %g, want 7", got)
	}
}

// TestPow2Buckets: the Prometheus form of a power-of-two histogram is
// cumulative buckets trimmed to the non-empty range, with the exact
// inclusive upper bound 2^i - 1 of each bucket, scaled, then +Inf, sum
// and count.
func TestPow2Buckets(t *testing.T) {
	var s histSnapshot
	s.Counts[3] = 5  // values 4..7
	s.Counts[5] = 2  // values 16..31
	s.Counts[10] = 1 // values 512..1023
	s.N, s.Sum = 8, 600
	all := s.promSeries(1)
	if len(all) != 8+3 {
		t.Fatalf("got %d samples, want 8 buckets (trimmed to [3,10]) + 3", len(all))
	}
	bs, tail := all[:8], all[8:]
	le := func(x series) float64 {
		v, err := strconv.ParseFloat(x.labels[1], 64)
		if err != nil || x.suffix != "_bucket" || x.labels[0] != "le" {
			t.Fatalf("not a bucket: %+v", x)
		}
		return v
	}
	if le(bs[0]) != 7 || bs[0].v != 5 {
		t.Fatalf("first bucket %+v", bs[0])
	}
	if last := bs[len(bs)-1]; le(last) != 1023 || last.v != 8 {
		t.Fatalf("last bucket %+v", last)
	}
	for i := 1; i < len(bs); i++ {
		if le(bs[i]) <= le(bs[i-1]) || bs[i].v < bs[i-1].v {
			t.Fatalf("buckets not monotone at %d: %+v then %+v", i, bs[i-1], bs[i])
		}
	}
	if tail[0].labels[1] != "+Inf" || tail[0].v != 8 || tail[1].suffix != "_sum" || tail[1].v != 600 || tail[2].suffix != "_count" || tail[2].v != 8 {
		t.Fatalf("+Inf, sum and count %+v", tail)
	}
	if got := (histSnapshot{}).promSeries(1); len(got) != 3 {
		t.Fatalf("empty histogram yields %+v, want +Inf, sum and count only", got)
	}
	// Scaling applies to the bounds and the sum (the comparand repeats the
	// runtime float product — a constant literal would fold exactly and
	// differ by one ulp).
	scale := 1e-9
	if ns, want := s.promSeries(scale), formatVal(float64(7)*scale); ns[0].labels[1] != want || ns[9].v != 600*scale {
		t.Fatalf("scaled le %v, want %v (sum %v)", ns[0].labels[1], want, ns[9].v)
	}
	// The JSON buckets carry the same bounds.
	if js := s.Buckets(); len(js) != 3 || js[0] != (BucketCount{Lo: 4, Hi: 7, Count: 5}) || js[2] != (BucketCount{Lo: 512, Hi: 1023, Count: 1}) {
		t.Fatalf("JSON buckets %+v", js)
	}
}

// TestSLOCollect: the seedex_slo_* families render the burn-rate engine's
// snapshot, one series per objective (and window, and severity).
func TestSLOCollect(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	s, ts := newTestServer(t, Config{SLO: SLOConfig{Interval: -1, AvailabilityTarget: 0.999, Now: func() time.Time { return now }}})
	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: testProblems(2, 60, 3)})
	resp.Body.Close()
	now = now.Add(10 * time.Second)
	s.slo.Tick()
	sc := scrapeProm(t, ts.URL)
	for series, want := range map[string]float64{
		`seedex_slo_target{objective="availability"}`:                      0.999,
		`seedex_slo_good_total{objective="availability"}`:                  1,
		`seedex_slo_events_total{objective="availability"}`:                1,
		`seedex_slo_burn_rate{objective="availability",window="5m"}`:       0,
		`seedex_slo_alert{objective="availability",severity="page"}`:       0,
		`seedex_slo_alert{objective="availability",severity="ticket"}`:     0,
		`seedex_slo_events_total{objective="extend-latency-p99"}`:          1,
		`seedex_slo_alert{objective="extend-latency-p99",severity="page"}`: 0,
		`seedex_slo_degraded`: 0,
	} {
		if got, ok := sc.samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

// TestQuantileGaugesOnFreshServer: the *_quantile_seconds gauge families
// are present (and zero) on a scrape before any traffic, so dashboards
// never see a family flicker into existence.
func TestQuantileGaugesOnFreshServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := scrapeProm(t, ts.URL)
	for _, fam := range []string{
		"seedex_request_latency_quantile_seconds",
		"seedex_queue_wait_quantile_seconds",
		"seedex_batch_occupancy_quantile",
	} {
		for _, q := range []string{"0.5", "0.9", "0.99"} {
			key := fmt.Sprintf(`%s{quantile="%s"}`, fam, q)
			v, ok := sc.samples[key]
			if !ok {
				t.Errorf("fresh scrape missing %s", key)
				continue
			}
			if v != 0 {
				t.Errorf("%s = %g on a fresh server, want 0", key, v)
			}
		}
	}
}
