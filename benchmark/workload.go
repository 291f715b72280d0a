package main

// workload.go generates everything a workload needs from the master seed:
// reference, reads, the extension problems the pipeline dispatches for
// those reads, pre-marshalled request bodies for both endpoints, and the
// full-band oracle for each body. The daemon only ever sees these bytes.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
)

const (
	extendPath = "/v1/extend"
	mapPath    = "/v1/map"
	refName    = "chrBench"
	readLen    = 150
)

// spec is one workload: which daemon, which traffic, how much input.
type spec struct {
	name     string
	endpoint string // the path the end-to-end run drives

	// Daemon flags beyond -addr, as switches. The child gets exactly
	// daemonFlags(); the in-process replay is configured from the same
	// switches.
	paper     bool // -mode paper
	flushZero bool // -flush 0
	obs       bool // -trace-sample 100 -trace-tail

	refLen      int
	nReads      int
	nProblems   int // extension problems kept; 0 keeps every whole request
	jobsPerReq  int
	readsPerReq int
	warmup      int // requests sent before set-up counts as done
}

func (sp spec) daemonFlags(indexStore string) []string {
	var f []string
	if sp.paper {
		f = append(f, "-mode", "paper")
	}
	if sp.flushZero {
		f = append(f, "-flush", "0")
	}
	if sp.obs {
		f = append(f, "-trace-sample", "100", "-trace-tail")
	}
	if sp.endpoint == mapPath {
		f = append(f, "-index-store", indexStore)
	}
	return f
}

// specs are the four workloads of BENCHMARK.json; README.md says why each
// exists. The two bulk workloads differ in one daemon flag only, so the
// same seed gives them byte-identical bodies.
//
// Sizes are what fits the driver's time cap (about 25 s per run, set-up
// and generation included): 8192 distinct problems in 32 bulk bodies, 512
// small bodies, 4096 reads over 500 kbp. For the extend workloads nReads
// is sized so the harvest yields nProblems with a tenth to spare at ~1.86
// problems per read. map_reads needs its 256 bodies for another reason:
// what a read costs depends on whether it falls into a repeat, and with
// 1024 reads the seed alone moved throughput by 8% between the cheapest
// and the dearest draw (the same on every run of a seed).
var specs = []spec{
	{name: "extend_bulk_strict", endpoint: extendPath,
		refLen: 200_000, nReads: 5000, nProblems: 8192, jobsPerReq: 256, readsPerReq: 16, warmup: 50},
	{name: "extend_bulk_paper", endpoint: extendPath, paper: true,
		refLen: 200_000, nReads: 5000, nProblems: 8192, jobsPerReq: 256, readsPerReq: 16, warmup: 50},
	{name: "extend_small_obs", endpoint: extendPath, paper: true, flushZero: true, obs: true,
		refLen: 200_000, nReads: 1300, nProblems: 2048, jobsPerReq: 4, readsPerReq: 16, warmup: 2000},
	{name: "map_reads", endpoint: mapPath,
		refLen: 500_000, nReads: 4096, jobsPerReq: 4, readsPerReq: 16, warmup: 50},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// simRead is one simulated read with its truth.
type simRead struct {
	Name    string
	Seq     []byte // base codes
	Qual    []byte // Phred+33
	TruePos int    // 0-based origin on the reference
}

// problem is one harvested extension problem (base codes).
type problem struct {
	Q, T []byte
	H0   int
}

// extExpect is the full-band answer to one problem. Strict-mode workloads
// compare all five fields, paper-mode workloads the local triple.
type extExpect struct {
	Local, LocalT, LocalQ, Global, GlobalT int
}

// mapExpect is the full-band mapping of one read, field for field what
// the daemon puts on the wire.
type mapExpect struct {
	Mapped bool
	RName  string
	Pos    int
	Rev    bool
	MapQ   int
	Score  int
	Cigar  string
}

// The wire format of the two endpoints, written out here so that the
// end-to-end path shares no type with the program.
type (
	wireExtendJob struct {
		Query  string `json:"query"`
		Target string `json:"target"`
		H0     int    `json:"h0"`
	}
	wireExtendRequest struct {
		Jobs []wireExtendJob `json:"jobs"`
	}
	wireMapRead struct {
		Name string `json:"name"`
		Seq  string `json:"seq"`
		Qual string `json:"qual"`
	}
	wireMapRequest struct {
		Reads []wireMapRead `json:"reads"`
	}
)

// traffic is one endpoint's rotation: bodies[i] answers to expectations
// [i*perReq, (i+1)*perReq).
type traffic struct {
	path   string
	perReq int
	bodies [][]byte
	wire   [][]byte // bodies as complete HTTP requests
	sha256 string
}

type workload struct {
	spec    spec
	seed    int64
	ref     []byte
	reads   []simRead
	extends traffic
	maps    traffic

	extExpects []extExpect
	mapExpects []mapExpect
	// truePosShare is the share of reads the full-band pipeline maps
	// within 10 bp of where readsim drew them.
	truePosShare float64
}

// primary is the traffic the end-to-end run drives.
func (w *workload) primary() traffic {
	if w.spec.endpoint == mapPath {
		return w.maps
	}
	return w.extends
}

func generate(sp spec, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{spec: sp, seed: seed}
	w.ref = simulateReference(sp.refLen, rng)
	w.reads = simulateReads(w.ref, sp.nReads, readLen, rng)
	problems, extExpects, mapExpects, err := harvestFullBand(refName, w.ref, w.reads)
	if err != nil {
		return nil, err
	}
	keep := sp.nProblems
	if keep == 0 {
		keep = len(problems) / sp.jobsPerReq * sp.jobsPerReq
	}
	if len(problems) < keep || keep == 0 {
		return nil, fmt.Errorf("%s seed %d: %d reads gave %d extension problems, need %d",
			sp.name, seed, sp.nReads, len(problems), max(keep, sp.jobsPerReq))
	}
	w.extExpects, w.mapExpects = extExpects[:keep], mapExpects

	w.extends = traffic{path: extendPath, perReq: sp.jobsPerReq}
	for lo := 0; lo < keep; lo += sp.jobsPerReq {
		req := wireExtendRequest{Jobs: make([]wireExtendJob, sp.jobsPerReq)}
		for i, p := range problems[lo : lo+sp.jobsPerReq] {
			req.Jobs[i] = wireExtendJob{Query: basesToASCII(p.Q), Target: basesToASCII(p.T), H0: p.H0}
		}
		w.extends.bodies = append(w.extends.bodies, mustMarshal(req))
	}
	w.maps = traffic{path: mapPath, perReq: sp.readsPerReq}
	for lo := 0; lo+sp.readsPerReq <= len(w.reads); lo += sp.readsPerReq {
		req := wireMapRequest{Reads: make([]wireMapRead, sp.readsPerReq)}
		for i, r := range w.reads[lo : lo+sp.readsPerReq] {
			req.Reads[i] = wireMapRead{Name: r.Name, Seq: basesToASCII(r.Seq), Qual: string(r.Qual)}
		}
		w.maps.bodies = append(w.maps.bodies, mustMarshal(req))
	}
	for _, tr := range []*traffic{&w.extends, &w.maps} {
		tr.sha256 = hashBodies(tr.bodies)
		for _, b := range tr.bodies {
			tr.wire = append(tr.wire, wireRequest(tr.path, b))
		}
	}

	near := 0
	for i, m := range mapExpects {
		if d := m.Pos - 1 - w.reads[i].TruePos; m.Mapped && d >= -10 && d <= 10 {
			near++
		}
	}
	w.truePosShare = float64(near) / float64(len(mapExpects))
	return w, nil
}

// mustMarshal marshals a wire struct of strings and ints, which cannot fail.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// hashBodies is a SHA-256 over the length-prefixed bodies, in order.
func hashBodies(bodies [][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, b := range bodies {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFasta writes the reference for seedex-index, 80 columns a line.
func (w *workload) writeFasta(path string) error {
	var sb strings.Builder
	sb.Grow(len(w.ref) + len(w.ref)/80 + 32)
	sb.WriteString(">" + refName + "\n")
	ascii := basesToASCII(w.ref)
	for lo := 0; lo < len(ascii); lo += 80 {
		sb.WriteString(ascii[lo:min(lo+80, len(ascii))])
		sb.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
