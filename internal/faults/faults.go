// Package faults is the deterministic fault-injection and fault-tolerance
// layer of the accelerator stack. It provides two pieces:
//
//   - Injector: a seeded chaos source the simulated device and driver
//     consult to corrupt narrow-band scores and boundary coordinates, flip
//     check verdicts, drop or slot-swap DMA responses, stall a device
//     batch past its deadline, and fail whole cores. Every decision is a
//     pure hash of (seed, batch, attempt, slot, class), so a chaos run is
//     bit-replayable from its seed regardless of thread scheduling.
//
//   - Breaker: a sliding-window circuit breaker that trips the platform
//     into host-only full-band mode when the device misbehaves, with
//     half-open probing to re-admit it once it recovers.
//
// The fault model is transport- and availability-level: payloads are
// corrupted in flight (after the device stamped its integrity words),
// responses go missing or land in the wrong DMA slot, and batches time out
// or abort. The driver's containment turns every such event into exactly
// the host full-band rerun the paper already budgets for (§V-B), so
// output stays bit-identical to the full-band oracle under any injected
// mix.
package faults

import (
	"math"
	"sync/atomic"
	"time"
)

// Class identifies one injectable fault class.
type Class int

// Fault classes, in the order Config lists their rates.
const (
	// ClassCorrupt perturbs one response payload field (narrow-band score
	// or a boundary coordinate) by a deterministic non-zero delta.
	ClassCorrupt Class = iota
	// ClassFlip toggles one response's check-verdict (rerun) bit.
	ClassFlip
	// ClassDrop removes one response from the DMA return batch.
	ClassDrop
	// ClassReorder lands one response's payload in its neighbour's DMA
	// slot (and vice versa): tags and integrity words stay put, payloads
	// swap.
	ClassReorder
	// ClassStall holds the device busy past the batch deadline.
	ClassStall
	// ClassCoreFail aborts the whole batch: batch_done never reports a
	// usable result set for this attempt.
	ClassCoreFail

	numClasses
)

// String names the class for counters and logs.
func (c Class) String() string {
	switch c {
	case ClassCorrupt:
		return "corrupt"
	case ClassFlip:
		return "flip"
	case ClassDrop:
		return "drop"
	case ClassReorder:
		return "reorder"
	case ClassStall:
		return "stall"
	case ClassCoreFail:
		return "core-fail"
	}
	return "unknown"
}

// Config sets the per-class injection rates. Corrupt, Flip, Drop and
// Reorder are per-response probabilities; Stall and CoreFail are
// per-batch-attempt probabilities. All zero disables injection.
type Config struct {
	// Seed keys every decision; the same seed replays the same chaos.
	Seed int64
	// Per-response rates in [0, 1].
	Corrupt float64
	Flip    float64
	Drop    float64
	Reorder float64
	// Per-batch-attempt rates in [0, 1].
	Stall    float64
	CoreFail float64
	// StallFor is the extra wall time a stalled batch occupies the device
	// (default 5ms — comfortably past any sensible per-batch deadline).
	StallFor time.Duration
}

// Uniform enables every fault class at the same rate — the standard chaos
// preset of the fault-injection drills.
func Uniform(seed int64, rate float64) Config {
	return Config{
		Seed:    seed,
		Corrupt: rate, Flip: rate, Drop: rate, Reorder: rate,
		Stall: rate, CoreFail: rate,
	}
}

// Enabled reports whether any class has a non-zero rate.
func (c Config) Enabled() bool {
	return c.Corrupt > 0 || c.Flip > 0 || c.Drop > 0 || c.Reorder > 0 ||
		c.Stall > 0 || c.CoreFail > 0
}

// Injector draws deterministic fault decisions. Rates are stored as
// atomics so chaos drills (and the breaker recovery test) can change them
// while the device is running; decisions for a given (seed, key) tuple
// depend only on the rates in force at draw time.
type Injector struct {
	seed     int64
	stallFor time.Duration
	rates    [numClasses]atomic.Uint64 // float64 bits
	injected [numClasses]atomic.Int64
}

// NewInjector builds an injector for cfg. A zero cfg yields a valid,
// permanently-silent injector.
func NewInjector(cfg Config) *Injector {
	in := &Injector{seed: cfg.Seed, stallFor: cfg.StallFor}
	if in.stallFor <= 0 {
		in.stallFor = 5 * time.Millisecond
	}
	in.SetRate(ClassCorrupt, cfg.Corrupt)
	in.SetRate(ClassFlip, cfg.Flip)
	in.SetRate(ClassDrop, cfg.Drop)
	in.SetRate(ClassReorder, cfg.Reorder)
	in.SetRate(ClassStall, cfg.Stall)
	in.SetRate(ClassCoreFail, cfg.CoreFail)
	return in
}

// SetRate updates one class's rate (clamped to [0, 1]) while the injector
// is live.
func (in *Injector) SetRate(c Class, rate float64) {
	if c < 0 || c >= numClasses {
		return
	}
	if rate < 0 {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	in.rates[c].Store(math.Float64bits(rate))
}

// Rate reads one class's current rate.
func (in *Injector) Rate(c Class) float64 {
	if c < 0 || c >= numClasses {
		return 0
	}
	return math.Float64frombits(in.rates[c].Load())
}

// Enabled reports whether any class currently has a non-zero rate.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	for c := Class(0); c < numClasses; c++ {
		if in.Rate(c) > 0 {
			return true
		}
	}
	return false
}

// Corruption is one payload perturbation of a batch plan.
type Corruption struct {
	// Index is the response slot to corrupt.
	Index int
	// Field selects the payload field: 0 Local, 1 Global, 2 LocalT,
	// 3 LocalQ, 4 GlobalT.
	Field int
	// Delta is the signed, non-zero perturbation.
	Delta int
}

// Plan is the full set of faults drawn for one (batch, attempt). The
// driver applies it to the in-flight copy of the device's responses.
type Plan struct {
	// CoreFail aborts the attempt outright (after the device time is
	// spent).
	CoreFail bool
	// Stall is extra device occupancy (0 = no stall).
	Stall time.Duration
	// Corrupt lists payload perturbations.
	Corrupt []Corruption
	// Flip lists slots whose verdict bit toggles.
	Flip []int
	// Swap lists slot pairs whose payloads land in each other's DMA slot.
	Swap [][2]int
	// Drop lists slots removed from the return batch (applied last).
	Drop []int
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return !p.CoreFail && p.Stall == 0 &&
		len(p.Corrupt) == 0 && len(p.Flip) == 0 && len(p.Swap) == 0 && len(p.Drop) == 0
}

// BatchPlan draws the faults for one device batch attempt over n response
// slots. The draw is a pure function of (seed, key, attempt, slot, class):
// the same tuple always yields the same plan, so runs replay exactly, and
// a retried attempt redraws (modelling transient faults).
func (in *Injector) BatchPlan(key, attempt int64, n int) Plan {
	var p Plan
	if in == nil || !in.Enabled() {
		return p
	}
	if in.hit(ClassCoreFail, uint64(key), uint64(attempt), 0) {
		p.CoreFail = true
		in.injected[ClassCoreFail].Add(1)
	}
	if in.hit(ClassStall, uint64(key), uint64(attempt), 0) {
		p.Stall = in.stallFor
		in.injected[ClassStall].Add(1)
	}
	for i := 0; i < n; i++ {
		if in.hit(ClassCorrupt, uint64(key), uint64(attempt), uint64(i)) {
			h := in.draw(ClassCorrupt, uint64(key), uint64(attempt), uint64(i), 1)
			delta := int(h%41) - 20
			if delta == 0 {
				delta = 7
			}
			if h&(1<<50) != 0 {
				delta *= 57 // occasionally corrupt far outside sane range
			}
			p.Corrupt = append(p.Corrupt, Corruption{Index: i, Field: int(h>>8) % 5, Delta: delta})
			in.injected[ClassCorrupt].Add(1)
		}
		if in.hit(ClassFlip, uint64(key), uint64(attempt), uint64(i)) {
			p.Flip = append(p.Flip, i)
			in.injected[ClassFlip].Add(1)
		}
		if n > 1 && in.hit(ClassReorder, uint64(key), uint64(attempt), uint64(i)) {
			j := (i + 1) % n
			p.Swap = append(p.Swap, [2]int{i, j})
			in.injected[ClassReorder].Add(1)
		}
		if in.hit(ClassDrop, uint64(key), uint64(attempt), uint64(i)) {
			p.Drop = append(p.Drop, i)
			in.injected[ClassDrop].Add(1)
		}
	}
	return p
}

// hit draws one Bernoulli decision for (class, key...) at the class's
// current rate.
func (in *Injector) hit(c Class, key, attempt, slot uint64) bool {
	rate := in.Rate(c)
	if rate <= 0 {
		return false
	}
	h := in.draw(c, key, attempt, slot, 0)
	return float64(h>>11)/(1<<53) < rate
}

// draw hashes the decision tuple into 64 uniform bits.
func (in *Injector) draw(c Class, key, attempt, slot, salt uint64) uint64 {
	h := splitmix64(uint64(in.seed) ^ 0x5eedec5eedec5eed)
	h = splitmix64(h ^ uint64(c))
	h = splitmix64(h ^ key)
	h = splitmix64(h ^ attempt<<17)
	h = splitmix64(h ^ slot<<34)
	h = splitmix64(h ^ salt<<51)
	return h
}

// Mix64 exposes the SplitMix64 mixer for the driver's response integrity
// words, so the injector and the detector agree on one hash.
func Mix64(x uint64) uint64 { return splitmix64(x) }

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mixer with
// full avalanche, the standard seed-spreading hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Counters is a snapshot of injected-fault counts per class.
type Counters struct {
	Corrupt  int64 `json:"corrupt"`
	Flip     int64 `json:"flip"`
	Drop     int64 `json:"drop"`
	Reorder  int64 `json:"reorder"`
	Stall    int64 `json:"stall"`
	CoreFail int64 `json:"core_fail"`
}

// Total sums the per-class counts.
func (c Counters) Total() int64 {
	return c.Corrupt + c.Flip + c.Drop + c.Reorder + c.Stall + c.CoreFail
}

// Counters snapshots the injected-fault counts.
func (in *Injector) Counters() Counters {
	if in == nil {
		return Counters{}
	}
	return Counters{
		Corrupt:  in.injected[ClassCorrupt].Load(),
		Flip:     in.injected[ClassFlip].Load(),
		Drop:     in.injected[ClassDrop].Load(),
		Reorder:  in.injected[ClassReorder].Load(),
		Stall:    in.injected[ClassStall].Load(),
		CoreFail: in.injected[ClassCoreFail].Load(),
	}
}

// Health is the fault-tolerance status document shared by /metrics,
// /healthz and the CLI summaries: breaker state, injected-fault counts
// (zero when chaos is off) and the containment counters.
type Health struct {
	// Breaker is "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	// Degraded is true while the breaker keeps the device out of the path
	// (open or half-open): extensions run host-only full-band.
	Degraded bool `json:"degraded"`
	// Injected counts faults the chaos injector introduced.
	Injected Counters `json:"injected"`
	// Detected counts device responses that failed integrity validation.
	Detected int64 `json:"detected_faults"`
	// Retries counts device batch attempts retried after a timeout or
	// core failure.
	Retries int64 `json:"device_retries"`
	// Trips counts closed->open breaker transitions.
	Trips int64 `json:"breaker_trips"`
	// HostOnly counts extensions served entirely host-side because the
	// breaker was open or the retry budget ran out.
	HostOnly int64 `json:"host_only_extensions"`
}
