package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"seedex/internal/core"
)

// Span exports. Two formats over the same SpanData snapshot:
//
//   - Chrome trace_event JSON ("X" complete events): load the document
//     into chrome://tracing or https://ui.perfetto.dev. Spans lane by
//     trace id (tid), so one request's spans share a row.
//   - NDJSON: one span object per line, for jq/scripted analysis.
//
// Kind-specific v1/v2 values export under readable names (kernel tier,
// check outcome, batch size, map stage), matching the paper's pipeline
// stages so a trace reads like Figure 12's timeline.

// argNames returns the export names of a span's v1/v2 (empty = omit).
func argNames(k Kind) (string, string) {
	switch k {
	case KindRequest:
		return "jobs", "status"
	case KindQueueWait:
		return "batch", ""
	case KindFlush:
		return "batch", "size_triggered"
	case KindKernel:
		return "tier", "live"
	case KindCheck:
		return "outcome", "pass"
	case KindRerun:
		return "outcome", ""
	case KindMapStage:
		return "stage", "reads"
	}
	return "v1", "v2"
}

// argValue renders one arg as a JSON literal (quoted names for enums,
// bare integers otherwise).
func argValue(k Kind, which int, v int64) string {
	switch {
	case k == KindKernel && which == 1:
		return `"` + TierName(v) + `"`
	case k == KindMapStage && which == 1:
		return `"` + MapStageName(v) + `"`
	case (k == KindCheck || k == KindRerun) && which == 1:
		return `"` + core.Outcome(v).String() + `"`
	case k == KindCheck && which == 2, k == KindFlush && which == 2:
		if v != 0 {
			return "true"
		}
		return "false"
	}
	return fmt.Sprintf("%d", v)
}

// writeArgs emits the args object for one span (shared by both formats).
func writeArgs(w *bufio.Writer, s SpanData) {
	n1, n2 := argNames(s.Kind)
	fmt.Fprintf(w, `"trace":%q`, FormatID(s.Trace))
	if n1 != "" {
		fmt.Fprintf(w, `,%q:%s`, n1, argValue(s.Kind, 1, s.V1))
	}
	if n2 != "" {
		fmt.Fprintf(w, `,%q:%s`, n2, argValue(s.Kind, 2, s.V2))
	}
	if s.Link != 0 {
		fmt.Fprintf(w, `,"link":%d`, s.Link)
	}
}

// MarshalJSON renders a span with its kind name and export arg names, so
// journey documents read like the NDJSON export.
func (s SpanData) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	fmt.Fprintf(bw, "{\"span\":%q,\"start_ns\":%d,\"dur_ns\":%d,", s.Kind.String(), s.Start, s.Dur)
	writeArgs(bw, s)
	bw.WriteString("}")
	bw.Flush()
	return b.Bytes(), nil
}

// WriteChromeTrace renders spans as a Chrome trace_event JSON document.
// epochWall is the wall-clock ns the span Start offsets are relative to.
func WriteChromeTrace(w io.Writer, epochWall int64, spans []SpanData) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"epoch_wall_ns\":%d},\"traceEvents\":[", epochWall)
	fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"seedex"}}`)
	lanes := map[uint64]int{}
	for _, s := range spans {
		lane, ok := lanes[s.Trace]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Trace] = lane
		}
		// ts/dur are microseconds (float) per the trace_event spec.
		fmt.Fprintf(bw, ",\n{\"name\":%q,\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
			s.Kind.String(), lane, float64(s.Start)/1e3, float64(s.Dur)/1e3)
		writeArgs(bw, s)
		bw.WriteString("}}")
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteNDJSON renders spans one JSON object per line.
func WriteNDJSON(w io.Writer, epochWall int64, spans []SpanData) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, "{\"span\":%q,\"start_ns\":%d,\"dur_ns\":%d,\"wall_ns\":%d,",
			s.Kind.String(), s.Start, s.Dur, epochWall+s.Start)
		writeArgs(bw, s)
		bw.WriteString("}\n")
	}
	return bw.Flush()
}
