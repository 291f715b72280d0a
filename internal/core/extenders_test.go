package core

import (
	"fmt"
	"strings"
	"testing"

	"seedex/internal/align"
)

func TestNamedExtender(t *testing.T) {
	for _, name := range ExtenderNames() {
		ext, err := NamedExtender(name, 11)
		if err != nil {
			t.Fatalf("NamedExtender(%q): %v", name, err)
		}
		// Every engine must support the batch and session protocols the
		// pipeline and the server rely on.
		if _, ok := ext.(align.BatchExtender); !ok {
			t.Fatalf("%q is not a BatchExtender", name)
		}
		se, ok := ext.(align.SessionExtender)
		if !ok {
			t.Fatalf("%q is not a SessionExtender", name)
		}
		q := []byte{0, 1, 2, 3, 0, 1, 2, 3}
		got := se.Session().Extend(q, q, 10)
		want := ext.Extend(q, q, 10)
		if got != want {
			t.Fatalf("%q: session result %+v != shared result %+v", name, got, want)
		}
	}
	if ext, err := NamedExtender(ExtenderSeedEx, 11); err != nil {
		t.Fatal(err)
	} else if _, ok := ext.(*SeedEx); !ok {
		t.Fatalf("seedex engine has type %T, want *SeedEx", ext)
	}

	_, err := NamedExtender("bogus", 11)
	if err == nil {
		t.Fatal("unknown extender must error")
	}
	for _, want := range append(ExtenderNames(), `"bogus"`) {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

func TestNamedExtenderBandRange(t *testing.T) {
	for _, tc := range []struct {
		band int
		ok   bool
	}{
		{-242, false}, {-1, false}, {0, false},
		{1, true}, {20, true}, {41, true}, {1000, true},
	} {
		for _, name := range ExtenderNames() {
			ext, err := NamedExtender(name, tc.band)
			if tc.ok {
				if err != nil || ext == nil {
					t.Fatalf("NamedExtender(%q, %d): %v", name, tc.band, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("NamedExtender(%q, %d) accepted an out-of-range band", name, tc.band)
			}
			for _, want := range []string{fmt.Sprint(tc.band), "valid: 1 or more"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("band error %q does not name %q", err, want)
				}
			}
		}
	}
}
