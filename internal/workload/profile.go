// Package workload synthesizes Borg cell workloads whose statistics are
// calibrated to the numbers the paper reports: arrival rates (§6.1),
// tasks-per-job by tier (Figure 11), heavy-tailed Pareto resource
// integrals (§7, Table 2), termination and dependency behaviour (§5.2),
// alloc-set usage (§5.1), tier mixes with per-cell variation (§4), and
// Autopilot coverage (§8).
//
// Two eras are provided: Profile2011 (one cell) and Profile2019 (cells
// a–h). All rates are specified at the paper's reference cell size of
// 12,000 machines and scaled linearly to the simulated machine count.
package workload

import (
	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ReferenceMachines is the per-cell machine count both traces report
// (Table 1); arrival rates scale as machines/ReferenceMachines.
const ReferenceMachines = 12000

// TierParams calibrates one tier's workload within a cell.
type TierParams struct {
	Tier trace.Tier
	// ArrivalShare is this tier's share of job submissions.
	ArrivalShare float64
	// CPUBudget and MemBudget are the target average fractions of cell
	// capacity this tier consumes (Figures 2/3 bar heights).
	CPUBudget float64
	MemBudget float64
	// Priorities are the raw priority values used by this tier and their
	// weights.
	Priorities      []int
	PriorityWeights []float64
	// TaskSingleProb is the probability a job has exactly one task; the
	// rest follow a bounded-Pareto tail with TaskAlpha up to TaskCap
	// (calibrates Figure 11's per-tier tasks-per-job quantiles).
	TaskSingleProb float64
	TaskAlpha      float64
	TaskCap        float64
	// UsageAlpha is the Pareto tail index of the per-job NCU-hours
	// integral (Table 2's fitted α).
	UsageAlpha float64
	// MemPerCPUMedian and MemPerCPUSigma couple NMU-hours to NCU-hours
	// (Figure 13's correlation).
	MemPerCPUMedian float64
	MemPerCPUSigma  float64
	// OversizeCPU/OversizeMem are the median request/usage ratios (slack
	// before autoscaling, §4's usage-vs-allocation gaps).
	OversizeCPU      float64
	OversizeCPUSigma float64
	OversizeMem      float64
	OversizeMemSigma float64
	// KillProb is the chance a parentless job is killed by its user
	// before completing; FailProb the chance it fails on its own.
	KillProb float64
	FailProb float64
	// ParentProb is the chance a job is submitted as the child of a live
	// job (§5.2 dependencies).
	ParentProb float64
	// RestartMean is the mean number of scripted crash-restarts per task
	// (geometric), driving Figure 9's rescheduling churn.
	RestartMean float64
	// BatchScheduler routes the tier's jobs through the batch queue.
	BatchScheduler bool
	// ScalingProbs are the probabilities of ScalingNone, ScalingConstrained
	// and ScalingFull (§8). Must sum to 1.
	ScalingProbs [3]float64
}

// CellProfile calibrates one simulated cell.
type CellProfile struct {
	Name string
	Era  trace.Era
	// Machines is the simulated cell size.
	Machines int
	Shapes   []cluster.Shape
	// JobsPerHour is the mean submission rate at ReferenceMachines.
	JobsPerHour float64
	// DiurnalAmplitude and DiurnalPhase modulate arrivals over the day;
	// phase is the local-time offset (cell g runs at Singapore time).
	DiurnalAmplitude float64
	DiurnalPhase     sim.Time
	// Arrival selects the arrival process by spec (see ParseArrival);
	// empty means the default diurnally-thinned poisson stream.
	Arrival string
	Tiers   []TierParams
	// AllocSetFraction is the fraction of collections that are alloc
	// sets (§5.1: 2%).
	AllocSetFraction float64
	// ProdAllocProb is the probability a production job targets a live
	// alloc set (§5.1: 15% of jobs overall, 95% of them prod).
	ProdAllocProb float64
	// InAllocMemBoost multiplies memory utilization for jobs inside
	// allocs (§5.1: 73% vs 41% utilization).
	InAllocMemBoost float64
	// MaintenanceRate is the per-machine rate of OS-upgrade evictions
	// per month (§5.2: "about 1/month per machine").
	MaintenanceRate float64
	// Overcommit is the cell's allocation policy (§4).
	Overcommit cluster.OvercommitPolicy
	// Placement tuning for the scheduler.
	Policy          scheduler.PlacementPolicy
	CandidateSample int
	// SchedServiceMedian is the median per-placement service time in
	// seconds (Figure 10 calibration).
	SchedServiceMedian float64
	SchedServiceSigma  float64
	// BatchQueue enables the batch scheduler front-end.
	BatchQueue bool
	// BatchAllocCeiling is the batch admission controller's
	// best-effort-batch CPU allocation ceiling (fraction of cell
	// capacity). Parameter sweeps vary it to probe admission-pressure
	// sensitivity.
	BatchAllocCeiling float64
	// UsageNoiseSigma is the per-window lognormal usage noise.
	UsageNoiseSigma float64
	// MemUnderProvisionProb is the chance a task's memory limit sits
	// below its peak usage, making it OOM-evictable under pressure.
	MemUnderProvisionProb float64
}

// TotalArrivalRate returns jobs/hour scaled to the simulated cell size.
func (p *CellProfile) TotalArrivalRate() float64 {
	return p.JobsPerHour * float64(p.Machines) / ReferenceMachines
}

// Profile2011 builds the single-cell 2011-era profile: coarse priority
// bands, no alloc sets / dependencies / batch queue / autopilot, a larger
// free tier, CPU-biased overcommit and random-fit placement.
func Profile2011(machines int) *CellProfile {
	return &CellProfile{
		Name:             "2011",
		Era:              trace.Era2011,
		Machines:         machines,
		Shapes:           cluster.Shapes2011,
		JobsPerHour:      964, // §6.1: mean 964 jobs/h in 2011
		DiurnalAmplitude: 0.30,
		DiurnalPhase:     0,
		Tiers: []TierParams{
			{
				Tier: trace.TierFree, ArrivalShare: 0.32,
				CPUBudget: 0.12, MemBudget: 0.14,
				Priorities: []int{0, 1}, PriorityWeights: []float64{0.6, 0.4},
				TaskSingleProb: 0.62, TaskAlpha: 0.62, TaskCap: 800,
				UsageAlpha:      0.77,
				MemPerCPUMedian: 1.0, MemPerCPUSigma: 0.45,
				OversizeCPU: 2.6, OversizeCPUSigma: 0.45,
				OversizeMem: 1.35, OversizeMemSigma: 0.30,
				KillProb: 0.38, FailProb: 0.12,
				RestartMean:  0.5,
				ScalingProbs: [3]float64{1, 0, 0},
			},
			{
				Tier: trace.TierBestEffortBatch, ArrivalShare: 0.44,
				CPUBudget: 0.06, MemBudget: 0.07,
				Priorities: []int{2, 4, 6, 8}, PriorityWeights: []float64{0.4, 0.3, 0.2, 0.1},
				TaskSingleProb: 0.50, TaskAlpha: 0.55, TaskCap: 1500,
				UsageAlpha:      0.77,
				MemPerCPUMedian: 1.0, MemPerCPUSigma: 0.45,
				OversizeCPU: 2.2, OversizeCPUSigma: 0.40,
				OversizeMem: 1.30, OversizeMemSigma: 0.30,
				KillProb: 0.40, FailProb: 0.12,
				RestartMean:  0.7,
				ScalingProbs: [3]float64{1, 0, 0},
			},
			{
				Tier: trace.TierProduction, ArrivalShare: 0.24,
				CPUBudget: 0.28, MemBudget: 0.30,
				Priorities: []int{9, 10, 11}, PriorityWeights: []float64{0.55, 0.40, 0.05},
				TaskSingleProb: 0.80, TaskAlpha: 1.3, TaskCap: 300,
				UsageAlpha:      0.77,
				MemPerCPUMedian: 1.1, MemPerCPUSigma: 0.40,
				OversizeCPU: 3.3, OversizeCPUSigma: 0.40,
				OversizeMem: 1.45, OversizeMemSigma: 0.25,
				KillProb: 0.30, FailProb: 0.06,
				RestartMean:  0.25,
				ScalingProbs: [3]float64{1, 0, 0},
			},
		},
		AllocSetFraction: 0,
		ProdAllocProb:    0,
		InAllocMemBoost:  1,
		MaintenanceRate:  1.0,
		// §4: in 2011 CPU was over-committed far more than memory.
		Overcommit:            cluster.OvercommitPolicy{CPUFactor: 1.30, MemFactor: 1.00},
		Policy:                scheduler.RandomFit,
		CandidateSample:       6,
		SchedServiceMedian:    0.35,
		SchedServiceSigma:     1.0,
		BatchQueue:            false,
		UsageNoiseSigma:       0.30,
		MemUnderProvisionProb: 0.02,
	}
}

// cellTweak captures the per-cell 2019 variations (Figures 3/5: cell b is
// beb-heavy, a prod-heavy, h mid-heavy, c over-allocates beb memory;
// cell g runs on Singapore local time).
type cellTweak struct {
	arrival        [4]float64 // free, beb, mid, prod arrival shares
	cpuB           [4]float64 // CPU budgets
	memB           [4]float64 // memory budgets
	phase          sim.Time
	bebMemOversize float64 // extra beb memory request inflation (cell c)
}

var tweaks2019 = map[string]cellTweak{
	"a": {arrival: [4]float64{0.14, 0.40, 0.05, 0.41}, cpuB: [4]float64{0.02, 0.13, 0.03, 0.42}, memB: [4]float64{0.02, 0.12, 0.04, 0.46}},
	"b": {arrival: [4]float64{0.14, 0.66, 0.03, 0.17}, cpuB: [4]float64{0.02, 0.33, 0.02, 0.21}, memB: [4]float64{0.02, 0.31, 0.03, 0.21}},
	"c": {arrival: [4]float64{0.18, 0.56, 0.05, 0.21}, cpuB: [4]float64{0.03, 0.25, 0.03, 0.27}, memB: [4]float64{0.02, 0.28, 0.03, 0.25}, bebMemOversize: 2.4},
	"d": {arrival: [4]float64{0.20, 0.50, 0.06, 0.24}, cpuB: [4]float64{0.03, 0.20, 0.04, 0.30}, memB: [4]float64{0.03, 0.19, 0.04, 0.32}},
	"e": {arrival: [4]float64{0.17, 0.48, 0.08, 0.27}, cpuB: [4]float64{0.02, 0.18, 0.05, 0.33}, memB: [4]float64{0.02, 0.17, 0.05, 0.35}},
	"f": {arrival: [4]float64{0.22, 0.52, 0.04, 0.22}, cpuB: [4]float64{0.04, 0.23, 0.02, 0.27}, memB: [4]float64{0.04, 0.21, 0.03, 0.29}},
	"g": {arrival: [4]float64{0.18, 0.50, 0.07, 0.25}, cpuB: [4]float64{0.02, 0.20, 0.04, 0.31}, memB: [4]float64{0.02, 0.19, 0.05, 0.33}, phase: 15 * sim.Hour},
	"h": {arrival: [4]float64{0.14, 0.44, 0.16, 0.26}, cpuB: [4]float64{0.02, 0.16, 0.10, 0.30}, memB: [4]float64{0.02, 0.15, 0.11, 0.32}},
}

// Cells2019 lists the 2019 trace's cell names.
func Cells2019() []string { return []string{"a", "b", "c", "d", "e", "f", "g", "h"} }

// Profile2019 builds the profile for one 2019 cell (a–h).
func Profile2019(cell string, machines int) *CellProfile {
	tw, ok := tweaks2019[cell]
	if !ok {
		panic("workload: unknown 2019 cell " + cell)
	}
	bebMemOversize := 1.55
	bebMemSigma := 0.35
	if tw.bebMemOversize > 0 {
		bebMemOversize = tw.bebMemOversize
		bebMemSigma = 0.45
	}
	return &CellProfile{
		Name:             cell,
		Era:              trace.Era2019,
		Machines:         machines,
		Shapes:           cluster.Shapes2019,
		JobsPerHour:      3360, // §6.1: mean 3360 jobs/h in 2019
		DiurnalAmplitude: 0.25,
		DiurnalPhase:     tw.phase,
		Tiers: []TierParams{
			{
				Tier: trace.TierFree, ArrivalShare: tw.arrival[0],
				CPUBudget: tw.cpuB[0], MemBudget: tw.memB[0],
				Priorities: []int{0, 25, 50}, PriorityWeights: []float64{0.5, 0.3, 0.2},
				// Figure 11: free 95%ile ≈ 21 tasks.
				TaskSingleProb: 0.70, TaskAlpha: 0.60, TaskCap: 600,
				UsageAlpha:      0.69,
				MemPerCPUMedian: 0.72, MemPerCPUSigma: 0.40,
				OversizeCPU: 3.0, OversizeCPUSigma: 0.45,
				OversizeMem: 1.5, OversizeMemSigma: 0.35,
				KillProb: 0.40, FailProb: 0.10,
				ParentProb:   0.30,
				RestartMean:  4.0,
				ScalingProbs: [3]float64{0.55, 0.15, 0.30},
			},
			{
				Tier: trace.TierBestEffortBatch, ArrivalShare: tw.arrival[1],
				CPUBudget: tw.cpuB[1], MemBudget: tw.memB[1],
				Priorities: []int{110, 115}, PriorityWeights: []float64{0.6, 0.4},
				// Figure 11: beb 80%ile ≈ 25 tasks, 95%ile ≈ 498.
				TaskSingleProb: 0.35, TaskAlpha: 0.30, TaskCap: 3000,
				UsageAlpha:      0.69,
				MemPerCPUMedian: 0.68, MemPerCPUSigma: 0.40,
				OversizeCPU: 2.8, OversizeCPUSigma: 0.40,
				OversizeMem: bebMemOversize, OversizeMemSigma: bebMemSigma,
				KillProb: 0.42, FailProb: 0.10,
				ParentProb:     0.42,
				RestartMean:    6.0,
				BatchScheduler: true,
				ScalingProbs:   [3]float64{0.55, 0.15, 0.30},
			},
			{
				Tier: trace.TierMid, ArrivalShare: tw.arrival[2],
				CPUBudget: tw.cpuB[2], MemBudget: tw.memB[2],
				Priorities: []int{116, 119}, PriorityWeights: []float64{0.7, 0.3},
				// Figure 11: mid 95%ile ≈ 67 tasks.
				TaskSingleProb: 0.50, TaskAlpha: 0.55, TaskCap: 1200,
				UsageAlpha:      0.70,
				MemPerCPUMedian: 0.76, MemPerCPUSigma: 0.35,
				// §4: mid-tier allocation and usage are close together.
				OversizeCPU: 1.8, OversizeCPUSigma: 0.25,
				OversizeMem: 1.25, OversizeMemSigma: 0.20,
				KillProb: 0.35, FailProb: 0.08,
				ParentProb:   0.22,
				RestartMean:  3.0,
				ScalingProbs: [3]float64{0.55, 0.15, 0.30},
			},
			{
				Tier: trace.TierProduction, ArrivalShare: tw.arrival[3],
				CPUBudget: tw.cpuB[3], MemBudget: tw.memB[3],
				Priorities: []int{120, 200, 360, 450}, PriorityWeights: []float64{0.45, 0.43, 0.08, 0.04},
				// Figure 11: prod 95%ile ≈ 3 tasks.
				TaskSingleProb: 0.85, TaskAlpha: 1.6, TaskCap: 400,
				UsageAlpha: 0.69,
				// §4: prod CPU usage ≈30% of allocation, memory ≈65%.
				MemPerCPUMedian: 0.92, MemPerCPUSigma: 0.35,
				OversizeCPU: 3.0, OversizeCPUSigma: 0.35,
				OversizeMem: 1.5, OversizeMemSigma: 0.25,
				KillProb: 0.32, FailProb: 0.05,
				ParentProb:   0.10,
				RestartMean:  0.8,
				ScalingProbs: [3]float64{0.55, 0.15, 0.30},
			},
		},
		AllocSetFraction: 0.02,
		ProdAllocProb:    0.58,
		InAllocMemBoost:  1.8,
		MaintenanceRate:  1.0,
		// §4: by 2019 memory is over-committed nearly as much as CPU
		// (in 2011 memory was not over-committed at all).
		Overcommit:            cluster.OvercommitPolicy{CPUFactor: 1.60, MemFactor: 1.30},
		Policy:                scheduler.LeastAllocated,
		CandidateSample:       16,
		SchedServiceMedian:    0.18,
		SchedServiceSigma:     1.1,
		BatchQueue:            true,
		BatchAllocCeiling:     0.85,
		UsageNoiseSigma:       0.25,
		MemUnderProvisionProb: 0.02,
	}
}
