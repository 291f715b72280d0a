package hw

import (
	"fmt"

	"seedex/internal/systolic"
)

// ASICComponent is one row of Table III (TSMC 28nm synthesis results in
// the paper; reproduced here as the constants of the analytic model, with
// totals and derived Figure-18 quantities recomputed from them).
type ASICComponent struct {
	Name    string
	Config  string
	Count   int
	AreaMM2 float64 // total area of all instances
	PowerMW float64 // total power of all instances
}

// ASICClockNs is the SeedEx ASIC clock period (paper: 0.49 ns).
const ASICClockNs = 0.49

// ERTClockHz is the clock the combined ERT+SeedEx design scales to
// (paper: 1.2 GHz, matching ERT).
const ERTClockHz = 1.2e9

// SeedExASIC returns the SeedEx ASIC component table: 12 BSW cores,
// 4 edit cores, 1 full-band rerun core, I/O buffers and RAM.
func SeedExASIC() []ASICComponent {
	return []ASICComponent{
		{"I/O buffer", "4KiB", 1, 0.08, 139.5},
		{"RAM", "2.25KiB x 4", 4, 0.31, 548.2},
		{"BSW cores", "12", 12, 0.43, 288},
		{"Edit cores", "4", 4, 0.04, 59.2},
		{"Rerun core", "1", 1, 0.084, 35.5},
	}
}

// ERTASIC is the seeding accelerator the SeedEx ASIC pairs with.
func ERTASIC() ASICComponent {
	return ASICComponent{"ERT", "x8", 8, 27.78, 8_710}
}

// ASICTotals sums a component list.
func ASICTotals(parts []ASICComponent) (area float64, powerMW float64) {
	for _, p := range parts {
		area += p.AreaMM2
		powerMW += p.PowerMW
	}
	return
}

// FormatASICRow renders one Table III row.
func FormatASICRow(c ASICComponent) string {
	return fmt.Sprintf("%-12s %-12s %8.3f mm2 %9.1f mW", c.Name, c.Config, c.AreaMM2, c.PowerMW)
}

// SillaxPEStates models GenAx's Silla automaton: O(K^2) states for
// K-character windows (paper §VIII; K = 32, band w = 2K+1). The quadratic
// PE scaling is what SeedEx's linear narrow band beats by ~20x.
func SillaxPEStates(k int) int { return k * k }

// Comparator is one system of Figure 18, with area-normalized throughput
// and energy efficiency. SeedEx and Sillax entries are derived from the
// structural models; CPU/GPU/aligner entries carry the published
// measurements of the cited baselines (SeqAn, SW#, CUSHAW2, BWA-MEM2,
// GenAx, ERT), which this repository cannot re-measure.
type Comparator struct {
	Name string
	// KernelThroughput is seed-extension kernel throughput in
	// K extensions/s/mm^2 (Figure 18a; log scale in the paper).
	KernelThroughput float64
	// AppThroughput is end-to-end reads/s/mm^2 in K (Figure 18b).
	AppThroughput float64
	// EnergyEff is K reads/s/J (Figure 18c).
	EnergyEff float64
}

// SeedExASICKernelThroughput derives the ASIC kernel throughput from the
// structural model: 12 BSW cores at the ASIC clock, each with the systolic
// latency (systolic.Latency) of an avgQ x avgT extension on pes = 2w+1 PEs.
func SeedExASICKernelThroughput(pes, avgQ, avgT int) (extPerSec float64, perMM2 float64) {
	lat := systolic.Latency((pes-1)/2, avgQ, avgT)
	clock := 1e9 / ASICClockNs
	extPerSec = 12 * clock / float64(lat)
	area, _ := ASICTotals(SeedExASIC())
	return extPerSec, extPerSec / area
}

// Published cross-system ratios from the paper's §VII-C, used to place
// the comparator bars this repository cannot re-measure (see DESIGN.md).
const (
	// SeedEx kernel throughput/mm^2 vs Sillax (linear vs O(K^2) PEs).
	kernelVsSillax = 20.0
	// ERT+SeedEx vs ERT+Sillax iso-area application throughput.
	appVsERTSillax = 1.56
	// ERT+SeedEx vs ERT+Sillax energy efficiency.
	effVsERTSillax = 2.45
	// ERT+SeedEx vs GenAx iso-area application throughput.
	appVsGenAx = 14.6
	// ERT+SeedEx vs GenAx energy efficiency.
	effVsGenAx = 2.11
)

// Figure18 returns the comparator bars. The SeedEx rows are computed from
// the structural models above (cycle model x ASIC clock / Table III area
// and power); hardware comparators are placed using the paper's published
// ratios, and the software baselines carry order-of-magnitude constants
// from the cited measurements (SeqAn, SW#, BWA-MEM2, CUSHAW2).
func Figure18(pes, avgQ, avgT int) []Comparator {
	_, kernelPerMM2 := SeedExASICKernelThroughput(pes, avgQ, avgT)

	// Application throughput: the combined ERT+SeedEx instance sustains
	// ~1.5 M reads/s per FPGA instance (paper §VII-B); the ASIC runs the
	// same pipeline at the ERT clock instead of the 8ns FPGA clock.
	readsPerSec := 1.5e6 * (ERTClockHz / ClockHz) / 2 // derate: host stages
	area, powerMW := ASICTotals(append(SeedExASIC(), ERTASIC()))
	appPerMM2 := readsPerSec / area / 1e3      // K reads/s/mm^2
	eff := readsPerSec / (powerMW / 1e3) / 1e3 // K reads/s/J
	kernelK := kernelPerMM2 / 1e3              // K ext/s/mm^2

	return []Comparator{
		{"SeedEx", kernelK, 0, 0},
		{"Sillax", kernelK / kernelVsSillax, 0, 0},
		{"CPU (SeqAn)", 30, 0, 0},
		{"GPU (SW#)", 3, 0, 0},
		{"BWA-MEM2", 0, 0.06, 1.5},
		{"CUSHAW2", 0, 0.02, 0.8},
		{"GenAx", 0, appPerMM2 / appVsGenAx, eff / effVsGenAx},
		{"ERT+Sillax", 0, appPerMM2 / appVsERTSillax, eff / effVsERTSillax},
		{"ERT+SeedEx", 0, appPerMM2, eff},
	}
}
