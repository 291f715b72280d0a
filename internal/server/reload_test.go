package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/fmindex"
	"seedex/internal/genome"
	"seedex/internal/readsim"
	"seedex/internal/refstore"
)

// refStoreFixture publishes a simulated reference as a container file
// and returns the store path plus the expected SAM for a set of reads.
type refStoreFixture struct {
	path     string
	req      MapRequest
	wantSam  []string
	refBytes []byte
}

func newRefStoreFixture(t *testing.T, seed int64) *refStoreFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	refSeq := genome.Simulate(genome.SimConfig{Length: 30_000}, rng)
	reads := readsim.Simulate(refSeq, readsim.DefaultConfig(24), rng)
	path := writeRefStore(t, refSeq)

	// Expected mappings from a plain in-process aligner over the same
	// reference: the store-served results must be bit-identical.
	a, err := bwamem.New("chrT", refSeq, core.New(20))
	if err != nil {
		t.Fatal(err)
	}
	fx := &refStoreFixture{path: path}
	pr := make([]bwamem.Read, len(reads))
	for i, r := range reads {
		pr[i] = bwamem.Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual}
		fx.req.Reads = append(fx.req.Reads, MapRead{Name: r.ID, Seq: genome.Decode(r.Seq), Qual: string(r.Qual)})
	}
	want, _ := a.Run(pr, 0)
	for _, rec := range want {
		fx.wantSam = append(fx.wantSam, rec.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fx.refBytes = data
	return fx
}

// writeRefStore publishes seq as the one-contig container chrT and
// returns its path.
func writeRefStore(tb testing.TB, seq []byte) string {
	tb.Helper()
	ref, ix, err := bwamem.BuildIndex([]bwamem.Contig{{Name: "chrT", Seq: seq}})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "ref.rix")
	if _, err := refstore.WriteFile(path, ref, ix); err != nil {
		tb.Fatal(err)
	}
	return path
}

// openRefStore serves seq from a generation store with the default
// options, closed when tb ends.
func openRefStore(tb testing.TB, seq []byte) *refstore.Store {
	tb.Helper()
	store, err := refstore.Open(writeRefStore(tb, seq), refstore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(store.Close)
	return store
}

// storeConfig serves cfg's /v1/map from store, mapping with the strict
// SeedEx engine.
func storeConfig(store *refstore.Store, cfg Config) Config {
	cfg.RefStore = store
	cfg.NewAligner = func(ref *bwamem.Reference, ix *fmindex.Index) *bwamem.Aligner {
		return bwamem.NewWithIndex(ref, ix, core.New(20))
	}
	return cfg
}

// newStoreServer builds a server mapping from the generation store.
func newStoreServer(t *testing.T, store *refstore.Store, cfg Config) (*Server, string) {
	t.Helper()
	s, ts := newTestServer(t, storeConfig(store, cfg))
	return s, ts.URL
}

// checkMap posts the fixture reads and requires status 200 with SAM
// records bit-identical to the fixed-pipeline expectation. It never
// calls into testing.T, so client goroutines can use it directly.
func (fx *refStoreFixture) checkMap(t *testing.T, url string) error {
	data, err := json.Marshal(fx.req)
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/map", "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var out MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if len(out.Results) != len(fx.wantSam) {
		return fmt.Errorf("%d results for %d reads", len(out.Results), len(fx.wantSam))
	}
	for i, r := range out.Results {
		if r.Sam != fx.wantSam[i] {
			return fmt.Errorf("read %d diverged:\n  served: %s\n  want:   %s", i, r.Sam, fx.wantSam[i])
		}
	}
	return nil
}

func healthzBody(t *testing.T, url string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestMapServesFromRefStore pins the baseline: /v1/map served from an
// mmap-backed generation store returns exactly the records the fixed
// aligner pipeline produces, and the health and metrics surfaces report
// the index lifecycle.
func TestMapServesFromRefStore(t *testing.T) {
	fx := newRefStoreFixture(t, 21)
	store, err := refstore.Open(fx.path, refstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	_, url := newStoreServer(t, store, Config{})

	if err := fx.checkMap(t, url); err != nil {
		t.Fatal(err)
	}
	code, body := healthzBody(t, url)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz %d %v", code, body)
	}
	if body["index_generation"] != "1" || body["index_state"] != "ok" {
		t.Fatalf("healthz index fields: %v", body)
	}
}

// TestAdminReloadHotSwap proves a reload through POST /admin/reload
// swaps generations with mappings bit-identical before, during and
// after, while traffic keeps flowing.
func TestAdminReloadHotSwap(t *testing.T) {
	fx := newRefStoreFixture(t, 22)
	store, err := refstore.Open(fx.path, refstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	_, url := newStoreServer(t, store, Config{
		MapBatch: BatcherConfig{MaxBatch: 8, FlushInterval: time.Millisecond, Workers: 2},
	})

	var stop atomic.Bool
	var fails atomic.Int64
	var oks atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := fx.checkMap(t, url); err != nil {
					fails.Add(1)
					t.Errorf("map under reload: %v", err)
					return
				}
				oks.Add(1)
			}
		}()
	}

	for i := 0; i < 5; i++ {
		resp := postJSON(t, url+"/admin/reload", struct{}{})
		var body reloadBody
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !body.OK {
			t.Fatalf("reload %d: status %d body %+v", i, resp.StatusCode, body)
		}
		if body.Generation != uint64(i+2) {
			t.Fatalf("reload %d produced generation %d", i, body.Generation)
		}
	}
	stop.Store(true)
	wg.Wait()
	if fails.Load() != 0 || oks.Load() == 0 {
		t.Fatalf("%d failed, %d ok map requests during reloads", fails.Load(), oks.Load())
	}
	if st := store.Status(); st.Reloads != 5 || st.DegradedReload {
		t.Fatalf("store status after reloads: %+v", st)
	}
}

// TestReloadRollbackDegradedHealthz is the rollback path over HTTP: a
// corrupt published file makes /admin/reload answer 500, /healthz turns
// degraded (still 200 — the old generation serves exact results), and
// mapping traffic is unaffected; republishing the good bytes recovers.
func TestReloadRollbackDegradedHealthz(t *testing.T) {
	fx := newRefStoreFixture(t, 23)
	store, err := refstore.Open(fx.path, refstore.Options{MaxAttempts: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	_, url := newStoreServer(t, store, Config{})

	// Publish garbage over the index, as a broken publisher would.
	publishIndex(t, fx.path, fx.refBytes[:len(fx.refBytes)/4])

	resp := postJSON(t, url+"/admin/reload", struct{}{})
	var body reloadBody
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || body.OK || body.Error == "" {
		t.Fatalf("reload of corrupt index: status %d body %+v", resp.StatusCode, body)
	}
	if body.Generation != 1 {
		t.Fatalf("rollback reports generation %d, want 1", body.Generation)
	}

	code, hz := healthzBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("degraded healthz answered %d, want 200", code)
	}
	if hz["status"] != "degraded" || hz["index_state"] != "degraded-reload" {
		t.Fatalf("healthz after rollback: %v", hz)
	}
	if hz["index_rollbacks"] != "1" || hz["index_reload_failures"] != "2" {
		t.Fatalf("healthz counters after rollback: %v", hz)
	}
	// The old generation still serves exact mappings.
	if err := fx.checkMap(t, url); err != nil {
		t.Fatalf("map after rollback: %v", err)
	}

	// Republish the good bytes: reload recovers, healthz clears.
	publishIndex(t, fx.path, fx.refBytes)
	resp = postJSON(t, url+"/admin/reload", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery reload: status %d", resp.StatusCode)
	}
	if _, hz := healthzBody(t, url); hz["status"] != "ok" || hz["index_state"] != "ok" {
		t.Fatalf("healthz after recovery: %v", hz)
	}
	if err := fx.checkMap(t, url); err != nil {
		t.Fatalf("map after recovery: %v", err)
	}
}

// TestReloadWithoutStore pins the 404 when no store is configured.
func TestReloadWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/admin/reload", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestPrometheusIndexFamilies checks the index lifecycle's whole
// reporting surface: seedex_index_* families in the strict Prometheus
// round-trip, the index section of the /metrics JSON body, and the
// generation fields in /healthz — before and after a reload.
func TestPrometheusIndexFamilies(t *testing.T) {
	fx := newRefStoreFixture(t, 24)
	store, err := refstore.Open(fx.path, refstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	_, url := newStoreServer(t, store, Config{})
	if err := fx.checkMap(t, url); err != nil {
		t.Fatal(err)
	}

	sc := scrapeProm(t, url)
	for fam, typ := range map[string]string{
		"seedex_index_generation":            "gauge",
		"seedex_index_reloads_total":         "counter",
		"seedex_index_reload_failures_total": "counter",
		"seedex_index_rollbacks_total":       "counter",
		"seedex_index_degraded_reload":       "gauge",
		"seedex_index_mmap_bytes":            "gauge",
		"seedex_index_warmup_seconds":        "gauge",
		"seedex_index_load_seconds":          "gauge",
	} {
		if got := sc.types[fam]; got != typ {
			t.Errorf("family %s has type %q, want %q", fam, got, typ)
		}
	}
	if sc.samples["seedex_index_generation"] != 1 {
		t.Errorf("seedex_index_generation = %v, want 1", sc.samples["seedex_index_generation"])
	}
	if sc.samples["seedex_index_mmap_bytes"] <= 0 {
		t.Errorf("seedex_index_mmap_bytes = %v, want > 0 on the mmap path", sc.samples["seedex_index_mmap_bytes"])
	}

	if _, err := store.Reload(); err != nil {
		t.Fatal(err)
	}
	sc = scrapeProm(t, url)
	if sc.samples["seedex_index_generation"] != 2 || sc.samples["seedex_index_reloads_total"] != 1 {
		t.Errorf("post-reload scrape: generation=%v reloads=%v",
			sc.samples["seedex_index_generation"], sc.samples["seedex_index_reloads_total"])
	}

	var met struct {
		Index *refstore.Status `json:"index"`
	}
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(mresp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if met.Index == nil || met.Index.Generation != 2 || met.Index.MappedBytes <= 0 {
		t.Fatalf("metrics index section: %+v", met.Index)
	}
}

// publishIndex replaces the index file at path the way production does:
// write-aside, then rename. The serving generation's mapping keeps the
// inode it opened.
func publishIndex(t *testing.T, path string, data []byte) {
	t.Helper()
	tmp := path + ".next"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// containmentSeed honors the CI chaos matrix: SEEDEX_CHAOS_SEED pins the
// damage seed, otherwise a fixed default runs.
func containmentSeed(t *testing.T) int64 {
	if v := os.Getenv("SEEDEX_CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SEEDEX_CHAOS_SEED=%q: %v", v, err)
		}
		return s
	}
	return 11
}

// indexDamage is the damage done to the published index file before one
// reload trigger: the file truncated, a bit flipped, a header byte
// clobbered, or the file removed (nil bytes).
type indexDamage struct {
	kind string
	data []byte // the bytes to publish; nil removes the file
}

// drawIndexDamage draws the damage of each of n reload triggers on good
// from seed: every kind once, intact among them, then a third of the
// other triggers intact and the rest damaged, in a seeded order.
func drawIndexDamage(seed int64, n int, good []byte) []indexDamage {
	kinds := []string{"intact", "truncate", "bit-flip", "header", "remove"}
	rng := rand.New(rand.NewSource(seed))
	plan := make([]indexDamage, n)
	for i := range plan {
		switch {
		case i < len(kinds):
			plan[i].kind = kinds[i]
		case rng.Intn(3) == 0:
			plan[i].kind = "intact"
		default:
			plan[i].kind = kinds[1+rng.Intn(len(kinds)-1)]
		}
	}
	rng.Shuffle(n, func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	for i := range plan {
		data := append([]byte(nil), good...)
		switch plan[i].kind {
		case "truncate":
			data = data[:rng.Intn(len(data))]
		case "bit-flip":
			// The suffix array, four bytes per text byte, is the
			// container's last section and fills the back half of it.
			data[len(data)/2+rng.Intn(len(data)-len(data)/2)] ^= 1 << rng.Intn(8)
		case "header":
			data[rng.Intn(96)] ^= 0x5a // the container's 96-byte header
		case "remove":
			data = nil
		}
		plan[i].data = data
	}
	return plan
}

// TestMapReloadChaosStorm is the acceptance drill: a reload storm in
// which a seeded draw damages the published index before each trigger,
// mapping clients running the whole time. Invariants: zero failed
// /v1/map requests, every response bit-identical to the fixed pipeline,
// every damaged file rolled back (reloads + rollbacks = triggers,
// rollbacks = HTTP 500s) and every intact one reloaded, so the seed
// replays the same outcome sequence.
func TestMapReloadChaosStorm(t *testing.T) {
	seed := containmentSeed(t)
	fx := newRefStoreFixture(t, seed)
	store, err := refstore.Open(fx.path, refstore.Options{
		MaxAttempts:  2,
		RetryBackoff: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	_, url := newStoreServer(t, store, Config{
		MapBatch: BatcherConfig{MaxBatch: 8, FlushInterval: time.Millisecond, Workers: 2},
	})

	var stop atomic.Bool
	var fails, oks atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := fx.checkMap(t, url); err != nil {
					fails.Add(1)
					t.Errorf("map during chaos storm: %v", err)
					return
				}
				oks.Add(1)
			}
		}()
	}

	const storms = 25
	plan := drawIndexDamage(seed, storms, fx.refBytes)
	failedReloads := 0
	fired := map[string]int{}
	for i, d := range plan {
		if d.data == nil {
			if err := os.Remove(fx.path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		} else {
			publishIndex(t, fx.path, d.data)
		}
		resp := postJSON(t, url+"/admin/reload", struct{}{})
		resp.Body.Close()
		want := http.StatusInternalServerError
		if d.kind == "intact" {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Fatalf("reload %d after damage %q: status %d, want %d", i, d.kind, resp.StatusCode, want)
		}
		if resp.StatusCode != http.StatusOK {
			failedReloads++
		}
		fired[d.kind]++
	}
	stop.Store(true)
	wg.Wait()

	if fails.Load() != 0 {
		t.Fatalf("%d /v1/map requests failed during the storm (%d ok)", fails.Load(), oks.Load())
	}
	if oks.Load() == 0 {
		t.Fatal("no mapping traffic ran during the storm")
	}
	st := store.Status()
	if st.Reloads+st.Rollbacks != storms {
		t.Fatalf("reloads %d + rollbacks %d != %d triggers", st.Reloads, st.Rollbacks, storms)
	}
	if int(st.Rollbacks) != failedReloads {
		t.Fatalf("%d HTTP reload failures but %d rollbacks", failedReloads, st.Rollbacks)
	}
	if len(fired) != 5 {
		t.Fatalf("a damage kind never fired: %v", fired)
	}
	// Whatever the storm left serving still answers bit-identically.
	if err := fx.checkMap(t, url); err != nil {
		t.Fatalf("map after storm: %v", err)
	}
	// Replay: the damage, and so the outcome of every trigger, is a pure
	// function of the seed.
	for i, d := range drawIndexDamage(seed, storms, fx.refBytes) {
		if d.kind != plan[i].kind || !bytes.Equal(d.data, plan[i].data) {
			t.Fatalf("trigger %d: the damage draw does not replay from its seed", i)
		}
	}
}
