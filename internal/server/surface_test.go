package server

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"seedex/internal/genome"
	"seedex/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_surface.golden from this run")

// TestMetricsSurface pins the shape of /metrics in both formats on two
// server configurations: every JSON key path, and every Prometheus family
// with its TYPE and label keys. The golden file is the contract the frozen
// benchmark and dashboards read; values are not part of it. On the traced
// configuration the flight recorder's metrics.json must have the same key
// paths as the /metrics document.
func TestMetricsSurface(t *testing.T) {
	var out strings.Builder
	for _, c := range []struct {
		name  string
		setup func(t *testing.T) (Config, func(t *testing.T, url string))
	}{
		{"software", func(t *testing.T) (Config, func(*testing.T, string)) {
			return Config{}, nil
		}},
		{"traced-store-flight", func(t *testing.T) (Config, func(*testing.T, string)) {
			store := openRefStore(t, genome.Simulate(genome.SimConfig{Length: 20_000}, rand.New(rand.NewSource(41))))
			cfg := storeConfig(store, Config{
				Trace:  obs.New(obs.Config{SampleEvery: 2, Tail: obs.TailConfig{Enabled: true, Budget: time.Microsecond}}),
				Flight: obs.FlightConfig{Dir: t.TempDir()},
			})
			return cfg, func(t *testing.T, url string) {
				resp := postJSON(t, url+"/v1/map", MapRequest{Reads: []MapRead{{Name: "r1", Seq: strings.Repeat("ACGT", 25)}}})
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}},
	} {
		cfg, extra := c.setup(t)
		cfg.Batch = BatcherConfig{MaxBatch: 16, FlushInterval: time.Millisecond, Workers: 1}
		s, ts := newTestServer(t, cfg)
		resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: testProblems(32, 100, 21)})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if extra != nil {
			extra(t, ts.URL)
		}

		var doc any
		if code := getJSON(t, ts.URL+"/metrics", &doc); code != http.StatusOK {
			t.Fatalf("%s: /metrics status %d", c.name, code)
		}
		keys := jsonKeyPaths(doc)
		if s.FlightRecorder() != nil {
			path, err := s.FlightDumpForce("surface")
			if err != nil {
				t.Fatal(err)
			}
			var flightDoc any
			if err := json.Unmarshal(flightEntry(t, path, "metrics.json"), &flightDoc); err != nil {
				t.Fatal(err)
			}
			if fk := jsonKeyPaths(flightDoc); strings.Join(fk, "\n") != strings.Join(keys, "\n") {
				t.Errorf("%s: flight metrics.json key paths differ from /metrics:\n%s\nvs\n%s", c.name, strings.Join(fk, "\n"), strings.Join(keys, "\n"))
			}
		}
		out.WriteString("== " + c.name + " json\n")
		for _, k := range keys {
			out.WriteString(k + "\n")
		}
		out.WriteString("== " + c.name + " prometheus\n")
		for _, f := range promSurface(t, ts.URL) {
			out.WriteString(f + "\n")
		}
	}

	golden := filepath.Join("testdata", "metrics_surface.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		t.Fatalf("metrics surface differs from %s:\n%s", golden, lineDiff(wl, gl))
	}
}

// jsonKeyPaths lists the leaf key paths of a decoded JSON document,
// sorted: objects join keys with ".", array elements share one "[]"
// segment, and the keys of checks.outcomes (outcome names, which depend
// on traffic) collapse to "*".
func jsonKeyPaths(doc any) []string {
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				if prefix == "checks.outcomes" {
					k = "*"
				}
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, child)
			}
		case []any:
			for _, child := range x {
				walk(prefix+"[]", child)
			}
		default:
			set[prefix] = true
		}
	}
	walk("", doc)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// promSurface scrapes the Prometheus form and lists one line per family
// and label-key set: "family type key1,key2", sorted.
func promSurface(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	types := map[string]string{}
	set := map[string]bool{}
	keyRe := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels := line[:strings.IndexAny(line, "{ ")], ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			labels = line[i:strings.LastIndexByte(line, '}')]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
				family = base
			}
		}
		var keys []string
		for _, m := range keyRe.FindAllStringSubmatch(labels, -1) {
			keys = append(keys, m[1])
		}
		sort.Strings(keys)
		set[strings.TrimSpace(family+" "+types[family]+" "+strings.Join(keys, ","))] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lineDiff renders the lines only one of two "== section" listings has,
// each under its section's name.
func lineDiff(want, got []string) string {
	qualify := func(ls []string) []string {
		section, out := "", make([]string, 0, len(ls))
		for _, l := range ls {
			if strings.HasPrefix(l, "== ") {
				section = strings.TrimPrefix(l, "== ")
				continue
			}
			out = append(out, section+": "+l)
		}
		return out
	}
	w, g := qualify(want), qualify(got)
	in := func(ls []string) map[string]bool {
		m := map[string]bool{}
		for _, l := range ls {
			m[l] = true
		}
		return m
	}
	wm, gm := in(w), in(g)
	var b strings.Builder
	for _, l := range w {
		if !gm[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range g {
		if !wm[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
