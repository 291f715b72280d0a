package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): a collector func
// emits metric families through a Prom writer at scrape time, adapting the
// repo's existing atomic counters and power-of-two histograms without
// imposing any instrumentation types on the hot paths.

// ContentType is the scrape response Content-Type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText runs collect and renders the exposition text.
func WriteText(w io.Writer, collect func(*Prom)) error {
	p := &Prom{w: bufio.NewWriter(w), seen: map[string]bool{}}
	collect(p)
	return p.w.Flush()
}

// Prom is the writer handed to collectors: each method emits one sample
// (HELP/TYPE lines are emitted once per family, on first use).
type Prom struct {
	w    *bufio.Writer
	seen map[string]bool
}

func (p *Prom) header(name, help, typ string) {
	if p.seen[name] {
		return
	}
	p.seen[name] = true
	help = strings.ReplaceAll(help, `\`, `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelPairs renders "k1=v1,k2=v2,..." pairs ({} omitted when empty).
func labelPairs(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.ReplaceAll(labels[i+1], `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatVal(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter sample. labels are alternating key, value.
func (p *Prom) Counter(name, help string, v float64, labels ...string) {
	p.header(name, help, "counter")
	fmt.Fprintf(p.w, "%s%s %s\n", name, labelPairs(labels), formatVal(v))
}

// Gauge emits one gauge sample.
func (p *Prom) Gauge(name, help string, v float64, labels ...string) {
	p.header(name, help, "gauge")
	fmt.Fprintf(p.w, "%s%s %s\n", name, labelPairs(labels), formatVal(v))
}

// Bucket is one cumulative histogram bucket: the count of observations
// with value <= LE.
type Bucket struct {
	LE  float64
	Cum int64
}

// Histogram emits one Prometheus histogram family: cumulative buckets
// (an +Inf bucket with the total count is appended automatically), sum
// and count.
func (p *Prom) Histogram(name, help string, buckets []Bucket, sum float64, count int64) {
	p.header(name, help, "histogram")
	for _, b := range buckets {
		fmt.Fprintf(p.w, "%s_bucket{le=%q} %d\n", name, formatVal(b.LE), b.Cum)
	}
	fmt.Fprintf(p.w, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	fmt.Fprintf(p.w, "%s_sum %s\n", name, formatVal(sum))
	fmt.Fprintf(p.w, "%s_count %d\n", name, count)
}

// Quantiles emits interpolated quantile estimates as a gauge family
// labelled by quantile (the pow-2 histograms cannot back a native
// Prometheus summary, so the estimates ride alongside the histogram).
func (p *Prom) Quantiles(name, help string, qv map[float64]float64) {
	p.header(name, help, "gauge")
	qs := make([]float64, 0, len(qv))
	for q := range qv {
		qs = append(qs, q)
	}
	sort.Float64s(qs)
	for _, q := range qs {
		fmt.Fprintf(p.w, "%s{quantile=%q} %s\n", name, strconv.FormatFloat(q, 'g', -1, 64), formatVal(qv[q]))
	}
}

// Pow2Buckets adapts a power-of-two histogram (counts[i] holds values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]) into cumulative
// Prometheus buckets with exact inclusive upper bounds le = (2^i - 1) *
// scale. Empty buckets outside the observed range are trimmed (the +Inf
// bucket the Histogram writer appends covers the tail).
func Pow2Buckets(counts []int64, scale float64) []Bucket {
	first, last := -1, -1
	for i, c := range counts {
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	out := make([]Bucket, 0, last-first+1)
	var cum int64
	for i := first; i <= last; i++ {
		cum += counts[i]
		le := float64(int64(1)<<uint(i) - 1)
		out = append(out, Bucket{LE: le * scale, Cum: cum})
	}
	return out
}
