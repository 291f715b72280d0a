package main

import (
	"encoding/json"
	"net/http"
	"testing"
)

type extendReply struct {
	Results []map[string]any `json:"results"`
}

func replyFor(want []extExpect) extendReply {
	var r extendReply
	for _, e := range want {
		r.Results = append(r.Results, map[string]any{"local": e.Local, "local_t": e.LocalT, "local_q": e.LocalQ,
			"global": e.Global, "global_t": e.GlobalT, "cells": 1234, "rerun": true})
	}
	return r
}

func TestTamperedScoreCountsAsFailed(t *testing.T) {
	want := []extExpect{{60, 50, 50, 58, 51}, {33, 20, 21, 0, 0}, {75, 62, 62, 75, 62}}
	good := replyFor(want)
	body := mustMarshal(good)
	for _, strict := range []bool{true, false} {
		if n := checkExtend(http.StatusOK, body, want, strict); n != 0 {
			t.Fatalf("strict=%v: the oracle's own answer fails %d ops", strict, n)
		}
	}

	tampered := replyFor(want)
	tampered.Results[1]["local"] = 34
	body = mustMarshal(tampered)
	for _, strict := range []bool{true, false} {
		if n := checkExtend(http.StatusOK, body, want, strict); n != 1 {
			t.Errorf("strict=%v: a wrong local score counted as %d failed ops, want 1", strict, n)
		}
	}

	// Paper mode promises the local triple only; strict mode all five.
	tampered = replyFor(want)
	tampered.Results[2]["global_t"] = 61
	body = mustMarshal(tampered)
	if n := checkExtend(http.StatusOK, body, want, true); n != 1 {
		t.Errorf("strict: a wrong global_t counted as %d failed ops, want 1", n)
	}
	if n := checkExtend(http.StatusOK, body, want, false); n != 0 {
		t.Errorf("paper: a wrong global_t counted as %d failed ops, want 0", n)
	}

	// Refused, short and unreadable replies fail every op they carried.
	body = mustMarshal(good)
	if n := checkExtend(http.StatusTooManyRequests, body, want, true); n != len(want) {
		t.Errorf("429 counted as %d failed ops, want %d", n, len(want))
	}
	good.Results = good.Results[:2]
	if n := checkExtend(http.StatusOK, mustMarshal(good), want, true); n != len(want) {
		t.Errorf("short reply counted as %d failed ops, want %d", n, len(want))
	}
	if n := checkExtend(http.StatusOK, []byte("{"), want, true); n != len(want) {
		t.Errorf("broken JSON counted as %d failed ops, want %d", n, len(want))
	}
}

func TestTamperedMappingCountsAsFailed(t *testing.T) {
	want := []mapExpect{
		{Mapped: true, RName: refName, Pos: 1201, Rev: true, MapQ: 60, Score: 141, Cigar: "150M"},
		{Mapped: false, RName: refName},
	}
	reply := func(edit func(r []map[string]any)) []byte {
		rs := []map[string]any{
			{"name": "a", "mapped": true, "rname": refName, "pos": 1201, "rev": true, "mapq": 60, "score": 141, "cigar": "150M", "sam": "a\t16"},
			{"name": "b", "mapped": false, "rname": refName, "mapq": 0, "score": 0, "sam": "b\t4"},
		}
		edit(rs)
		b, err := json.Marshal(map[string]any{"results": rs})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if n := checkMap(http.StatusOK, reply(func([]map[string]any) {}), want); n != 0 {
		t.Fatalf("the oracle's own mapping fails %d reads", n)
	}
	for field, wrong := range map[string]any{"pos": 1202, "rev": false, "mapq": 59, "score": 140, "cigar": "149M1S", "rname": "chrOther"} {
		if n := checkMap(http.StatusOK, reply(func(r []map[string]any) { r[0][field] = wrong }), want); n != 1 {
			t.Errorf("a wrong %s counted as %d failed reads, want 1", field, n)
		}
	}
	if n := checkMap(http.StatusServiceUnavailable, reply(func([]map[string]any) {}), want); n != len(want) {
		t.Errorf("503 counted as %d failed reads, want %d", n, len(want))
	}
}

func TestSliceRatesSpreadARequestOverItsFlight(t *testing.T) {
	// One request of 100 ops in flight from 0.5 s to 1.5 s of a 2 s window
	// cut in two: half of it belongs to each slice.
	rates := sliceRates([]sample{{start: 500e6, end: 1500e6, good: 100}}, 2e9, 2)
	if rates[0] != 50 || rates[1] != 50 {
		t.Fatalf("rates %v, want [50 50]", rates)
	}
}

func TestTailMeanLeavesOutTheSlowestHundredth(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i) // 0..199: p90 is 180, p99 is 198
	}
	if got, want := tailMean(v), (180.0+197.0)/2; got != want {
		t.Fatalf("tailMean = %v, want %v", got, want)
	}
	if got := tailMean([]float64{5}); got != 5 {
		t.Fatalf("tailMean of one value = %v", got)
	}
}
