package refstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedex/internal/fmindex"
)

// chaosSeeds picks the damage seeds: SEEDEX_CHAOS_SEED pins one seed
// (the CI chaos matrix), otherwise a small fixed matrix runs.
func chaosSeeds(t *testing.T) []int64 {
	if v := os.Getenv("SEEDEX_CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SEEDEX_CHAOS_SEED=%q: %v", v, err)
		}
		return []int64{s}
	}
	return []int64{1, 7, 1337}
}

func TestStoreOpenAndAcquire(t *testing.T) {
	path, ref, ix := writeFixture(t, 10, 3000)
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	g := s.Acquire()
	if g == nil {
		t.Fatal("no generation")
	}
	defer g.Release()
	if g.ID() != 1 {
		t.Fatalf("initial generation is %d, want 1", g.ID())
	}
	if !sameReference(ref, g.Ref()) || !sameIndex(ix, g.Index()) {
		t.Fatal("loaded generation does not match the built fixture")
	}
	if mmapSupported && g.MappedBytes() == 0 {
		t.Fatal("mmap platform loaded without a mapping")
	}
	if mmapSupported && (g.MappedBytes() != g.Info().FileBytes || !g.Info().ZeroCopy) {
		t.Fatalf("mapping must cover the file and serve the suffix array zero-copy: mapped=%d file=%d zero_copy=%v",
			g.MappedBytes(), g.Info().FileBytes, g.Info().ZeroCopy)
	}
	st := s.Status()
	if st.Generation != 1 || st.DegradedReload || st.Contigs != 2 {
		t.Fatalf("status: %+v", st)
	}
}

func TestStoreOpenErrors(t *testing.T) {
	if _, err := Open("/nonexistent/ref.rix", Options{}); err == nil {
		t.Fatal("open of a missing file succeeded")
	}
	dir := t.TempDir()
	bad := dir + "/bad.rix"
	os.WriteFile(bad, []byte("SEDXRIX2 but then garbage follows here"), 0o644)
	if _, err := Open(bad, Options{}); err == nil {
		t.Fatal("open of a garbage file succeeded")
	}
}

// TestStoreReloadSwapsGenerations proves the core swap semantics: a
// reload publishes a new generation, old handles keep working until
// released, and the index contents stay bit-identical when the file is
// unchanged.
func TestStoreReloadSwapsGenerations(t *testing.T) {
	path, _, _ := writeFixture(t, 11, 3000)
	var logs []string
	s, err := Open(path, Options{Logf: func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	old := s.Acquire()
	oldText := old.Index().Text()

	gen, err := s.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("reload produced generation %d, want 2", gen)
	}
	fresh := s.Acquire()
	if fresh.ID() != 2 {
		t.Fatalf("acquire after reload returned generation %d", fresh.ID())
	}
	if !sameIndex(old.Index(), fresh.Index()) {
		t.Fatal("generations over the same file are not bit-identical")
	}

	// The old handle still reads valid memory until released.
	q := oldText[50:90]
	if iv := old.Index().Count(q); iv.Size() == 0 {
		t.Fatal("retired-but-held generation lost its data")
	}
	old.Release()
	fresh.Release()

	st := s.Status()
	if st.Reloads != 1 || st.ReloadFailures != 0 || st.Rollbacks != 0 || st.DegradedReload {
		t.Fatalf("status after clean reload: %+v", st)
	}
	if len(logs) == 0 || !strings.Contains(strings.Join(logs, "\n"), "generation 2 live") {
		t.Fatalf("lifecycle log missing: %q", logs)
	}
}

// TestStoreReloadPicksUpNewFile republishes a different reference and
// checks the swap actually serves the new content.
func TestStoreReloadPicksUpNewFile(t *testing.T) {
	dir := t.TempDir()
	_, _, path := fixtureAt(t, dir, 12, 2000)
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref2, ix2 := buildFixture(t, 99, 2500)
	if _, err := WriteFile(path, ref2, ix2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	g := s.Acquire()
	defer g.Release()
	if !sameIndex(ix2, g.Index()) || !sameReference(ref2, g.Ref()) {
		t.Fatal("reload did not pick up the republished file")
	}
}

// publish replaces the index file the way production does: write-aside
// then rename. Rewriting the path in place would mutate the same inode
// underneath a live MAP_SHARED generation — the failure mode the
// rename-based WriteFile protocol exists to rule out.
func publish(t *testing.T, path string, data []byte) {
	t.Helper()
	tmp := path + ".pub"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRollback is the rollback contract: when every attempt fails
// (file replaced by garbage), the serving generation is untouched, the
// store reports degraded, and a later good file recovers it.
func TestStoreRollback(t *testing.T) {
	dir := t.TempDir()
	ref, ix, path := fixtureAt(t, dir, 13, 2000)
	s, err := Open(path, Options{MaxAttempts: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the published file (rename-replace, as a buggy or hostile
	// publisher would — the serving mapping's inode is untouched).
	publish(t, path, good[:len(good)/3])
	gen, rerr := s.Reload()
	if rerr == nil {
		t.Fatal("reload of a truncated file succeeded")
	}
	if gen != 1 {
		t.Fatalf("rollback left generation %d serving, want 1", gen)
	}
	g := s.Acquire()
	if g.ID() != 1 || !sameIndex(ix, g.Index()) || !sameReference(ref, g.Ref()) {
		t.Fatal("serving generation damaged by failed reload")
	}
	g.Release()
	st := s.Status()
	if !st.DegradedReload || st.Rollbacks != 1 || st.ReloadFailures != 2 || st.LastReloadError == "" {
		t.Fatalf("status after rollback: %+v", st)
	}

	// Republish the good bytes: the next reload recovers.
	publish(t, path, good)
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.DegradedReload || st.Generation != 2 {
		t.Fatalf("status after recovery: %+v", st)
	}
}

// TestStoreReloadRecoversOnRetry is the retry path: the first attempt
// meets a truncated file, the publisher puts the good bytes back before
// the second, and the trigger reloads without rolling back.
func TestStoreReloadRecoversOnRetry(t *testing.T) {
	dir := t.TempDir()
	ref, ix, path := fixtureAt(t, dir, 16, 2000)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	republished := 0
	s, err := Open(path, Options{
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		Logf: func(f string, a ...any) {
			if strings.Contains(fmt.Sprintf(f, a...), "attempt 1/2 failed") {
				publish(t, path, good)
				republished++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	publish(t, path, good[:len(good)/2])
	gen, err := s.Reload()
	if err != nil {
		t.Fatalf("reload after a good republish failed: %v", err)
	}
	if gen != 2 || republished != 1 {
		t.Fatalf("reload served generation %d after %d republishes, want 2 after 1", gen, republished)
	}
	st := s.Status()
	if st.Reloads != 1 || st.ReloadFailures != 1 || st.Rollbacks != 0 || st.DegradedReload || st.LastReloadError != "" {
		t.Fatalf("status after a recovered retry: %+v", st)
	}
	g := s.Acquire()
	defer g.Release()
	if !sameIndex(ix, g.Index()) || !sameReference(ref, g.Ref()) {
		t.Fatal("the retried load diverged from the fixture")
	}
}

// indexDamage is the damage done to the published index file before one
// reload trigger: the file truncated, a bit flipped past the header, a
// header byte clobbered, or the file removed (nil bytes).
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
			// The suffix array, four bytes per text byte, is the last
			// section and fills the back half of the file.
			data[len(data)/2+rng.Intn(len(data)-len(data)/2)] ^= 1 << rng.Intn(8)
		case "header":
			data[rng.Intn(headerBytes)] ^= 0x5a
		case "remove":
			data = nil
		}
		plan[i].data = data
	}
	return plan
}

// TestStoreReloadChaosStorm is the headline drill: a reload storm in
// which a seeded draw damages the published file before each trigger —
// truncated, a bit flipped, the header clobbered or the file removed —
// with concurrent readers querying the index throughout. Required
// invariants: no reader ever observes a generation's memory go away
// underneath it (every query on an acquired handle succeeds and matches
// the original), every damaged file rolls back and every intact one
// reloads, so the seed replays the same outcome sequence.
func TestStoreReloadChaosStorm(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path, _, ix := writeFixture(t, seed, 4000)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, Options{
				MaxAttempts:  2,
				RetryBackoff: 100 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// Queries answered against the pristine index up front; the
			// storm must keep returning exactly these.
			type probe struct {
				q    []byte
				want fmindex.Interval
			}
			text := ix.Text()
			probes := make([]probe, 16)
			for i := range probes {
				beg := (i * 211) % (len(text) - 64)
				q := text[beg : beg+48]
				probes[i] = probe{q: q, want: ix.Count(q)}
			}

			var stop atomic.Bool
			var queries, mismatches atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						g := s.Acquire()
						if g == nil {
							mismatches.Add(1)
							return
						}
						p := probes[(w+i)%len(probes)]
						if got := g.Index().Count(p.q); got != p.want {
							mismatches.Add(1)
						}
						queries.Add(1)
						g.Release()
					}
				}(w)
			}

			const storms = 30
			plan := drawIndexDamage(seed, storms, good)
			failed := 0
			fired := map[string]int{}
			for i, d := range plan {
				if d.data == nil {
					if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
				} else {
					publish(t, path, d.data)
				}
				_, err := s.Reload()
				if err != nil {
					failed++
				}
				if (err == nil) != (d.kind == "intact") {
					t.Errorf("trigger %d after damage %q: reload error %v", i, d.kind, err)
				}
				fired[d.kind]++
			}
			stop.Store(true)
			wg.Wait()

			st := s.Status()
			if mismatches.Load() != 0 {
				t.Fatalf("%d of %d queries diverged during the storm", mismatches.Load(), queries.Load())
			}
			if queries.Load() == 0 {
				t.Fatal("readers never ran")
			}
			if int(st.Rollbacks) != failed {
				t.Fatalf("%d reloads failed but %d rollbacks recorded", failed, st.Rollbacks)
			}
			if st.Reloads+st.Rollbacks != storms {
				t.Fatalf("reloads %d + rollbacks %d != %d triggers", st.Reloads, st.Rollbacks, storms)
			}
			if len(fired) != 5 {
				t.Fatalf("a damage kind never fired: %v", fired)
			}
			// The final state serves a valid generation either way.
			g := s.Acquire()
			if g == nil {
				t.Fatal("no serving generation after the storm")
			}
			if got := g.Index().Count(probes[0].q); got != probes[0].want {
				t.Fatalf("post-storm index diverged: %+v != %+v", got, probes[0].want)
			}
			g.Release()

			// Replay: the damage, and so the outcome of every trigger, is
			// a pure function of the seed.
			for i, d := range drawIndexDamage(seed, storms, good) {
				if d.kind != plan[i].kind || !bytes.Equal(d.data, plan[i].data) {
					t.Fatalf("trigger %d: the damage draw does not replay from its seed", i)
				}
			}
		})
	}
}

// TestStoreCopyLoadPath exercises the NoMmap fallback end to end.
func TestStoreCopyLoadPath(t *testing.T) {
	path, ref, ix := writeFixture(t, 14, 2000)
	s, err := Open(path, Options{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.Acquire()
	defer g.Release()
	if g.MappedBytes() != 0 {
		t.Fatal("copy load reported a mapping")
	}
	if !sameIndex(ix, g.Index()) || !sameReference(ref, g.Ref()) {
		t.Fatal("copy load diverged from the fixture")
	}
}

func TestStoreClose(t *testing.T) {
	path, _, _ := writeFixture(t, 15, 1500)
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	held := s.Acquire()
	s.Close()
	if g := s.Acquire(); g != nil {
		t.Fatal("acquire after close returned a generation")
	}
	if _, err := s.Reload(); err == nil {
		t.Fatal("reload after close succeeded")
	}
	// The held handle still reads valid memory, then releases cleanly.
	if held.Index().Len() == 0 {
		t.Fatal("held generation lost data after close")
	}
	held.Release()
	s.Close() // double close is a no-op
}
