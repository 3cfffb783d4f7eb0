// Package sched turns the paper's per-application frequency selection
// into the fleet-level capability its introduction motivates: operating a
// GPU cluster under a power budget (the "20 MW exascale" constraint) with
// minimal performance loss.
//
// A Planner profiles each job once at the maximum clock (the paper's
// online phase), obtains its predicted power/time curve across the DVFS
// space, and then assigns one frequency per job. Capping is a greedy
// marginal analysis: starting from every job at the maximum clock, the
// planner repeatedly steps down whichever job currently buys the most
// watts per unit of predicted slowdown, until the fleet fits the budget
// or every job is pinned by its own performance threshold.
package sched

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
)

// Job is one entry in the fleet plan.
type Job struct {
	Name string
	App  backend.Workload
	// GPUs is how many GPUs the job occupies (its power counts that many
	// times toward the budget). 0 means 1.
	GPUs int
	// MaxSlowdown bounds the job's acceptable predicted slowdown versus
	// the maximum clock, as a fraction (0.05 = 5%). 0 means 0.10;
	// negative means unconstrained.
	MaxSlowdown float64
}

func (j Job) gpus() int {
	if j.GPUs <= 0 {
		return 1
	}
	return j.GPUs
}

func (j Job) maxSlowdown() float64 {
	if j.MaxSlowdown == 0 {
		return 0.10
	}
	if j.MaxSlowdown < 0 {
		return math.Inf(1)
	}
	return j.MaxSlowdown
}

// Assignment is one job's planned operating point.
type Assignment struct {
	Job     string
	GPUs    int
	FreqMHz float64
	// MemFreqMHz is the assigned memory P-state, 0 when the planner swept
	// the core axis only.
	MemFreqMHz  float64
	PowerWatts  float64 // predicted per-GPU power at the assigned clock
	SlowdownPct float64 // predicted slowdown vs max clock, percent (positive = slower)
	EnergyPct   float64 // predicted energy saving vs max clock, percent
}

// Plan is a fleet assignment under a power budget.
type Plan struct {
	Assignments     []Assignment
	TotalPowerWatts float64
	BudgetWatts     float64
	// FitsBudget is false when every job is already at its threshold-
	// permitted minimum and the fleet still exceeds the budget.
	FitsBudget bool
}

// Config configures a Planner.
type Config struct {
	// Seed drives the profiling runs' simulated noise.
	Seed int64
	// Workers bounds how many jobs are profiled concurrently; 0 means
	// GOMAXPROCS (the repo-wide convention), 1 means serial. Every job's
	// profiling run is seeded from its index alone, so the planner's
	// output is bit-identical for any worker count.
	Workers int
	// MemFreqs extends each job's predicted curve to the (core × memory)
	// grid; the planner then walks the grid's power/time skyline instead of
	// the core-frequency ladder. Nil plans over the core axis only —
	// bit-identical to the historical behaviour.
	MemFreqs []float64
}

// Planner profiles jobs and produces budget-constrained frequency plans.
type Planner struct {
	dev      backend.Device
	models   *core.Models
	seed     int64
	workers  int
	memFreqs []float64

	profiles map[string][]objective.Profile // job name -> plan curve, ascending operating point
	jobs     []Job
	clamped  core.Clamps // clamp counts accumulated over the last Profile
}

// NewPlanner returns a planner over dev using trained models. seed
// drives the profiling runs' telemetry noise (each job profiles on its
// own fork of dev).
func NewPlanner(dev backend.Device, models *core.Models, seed int64) (*Planner, error) {
	return NewPlannerConfig(dev, models, Config{Seed: seed})
}

// NewPlannerConfig is NewPlanner with explicit profiling concurrency.
func NewPlannerConfig(dev backend.Device, models *core.Models, cfg Config) (*Planner, error) {
	if models == nil {
		return nil, errors.New("sched: models are required")
	}
	if dev == nil {
		return nil, errors.New("sched: device is required")
	}
	return &Planner{
		dev:      dev,
		models:   models,
		seed:     cfg.Seed,
		workers:  cfg.Workers,
		memFreqs: cfg.MemFreqs,
		profiles: map[string][]objective.Profile{},
	}, nil
}

// profiled is one job's online-phase outcome, produced by profileJob and
// reduced in index order so results never depend on worker interleaving.
type profiled struct {
	curve   []objective.Profile
	clamped core.Clamps
	err     error
}

// profileJob runs the online phase for job index i. The device and the
// collection seed derive from the job's index alone — never from which
// worker ran it — which is what makes parallel profiling deterministic.
func (p *Planner) profileJob(i int, j Job) profiled {
	dev := p.dev.Fork(p.seed + int64(i)*101)
	on, err := core.OnlinePredict(dev, p.models, j.App, dcgm.Config{Seed: p.seed + int64(i)*101 + 1}, p.memFreqs)
	if err != nil {
		return profiled{err: fmt.Errorf("sched: profiling job %q: %w", j.Name, err)}
	}
	return profiled{
		curve:   PlanCurve(on.Predicted),
		clamped: core.Clamps{Core: on.ClampedCore, Mem: on.ClampedMem},
	}
}

// PlanCurve orders a predicted profile set into the ascending operating
// curve a frequency planner walks: index len-1 is the reference point (the
// default clocks a job runs at absent any plan), and stepping the index
// down always trades watts for predicted slowdown. A single-memory-state
// set (every 1-D sweep) keeps the historical sort by core frequency, bit
// for bit. A 2-D grid is first reduced to its power/time skyline: the
// default-state corner (max core, then max mem) is the reference endpoint,
// and the remaining points are kept only where spending more power
// actually buys predicted time.
//
// Two planners share this construction: Plan's greedy marginal descent
// prices the watts-per-slowdown exchange rate between adjacent indices,
// and the fleet simulator builds its deadline-feasibility index over the
// curve's points. On the skyline path predicted time strictly decreases
// with ascending index; the 1-D sort orders by frequency alone, so a
// non-monotone model may leave local time inversions, which consumers
// needing strict time ordering (internal/fleet) re-index themselves. The
// input slice is not modified; the returned curve is freshly allocated and
// always non-empty for non-empty input, with the reference point last.
func PlanCurve(profiles []objective.Profile) []objective.Profile {
	curve := append([]objective.Profile(nil), profiles...)
	sameMem := true
	for _, p := range curve[1:] {
		if p.MemFreqMHz != curve[0].MemFreqMHz {
			sameMem = false
			break
		}
	}
	if sameMem {
		sort.Slice(curve, func(a, b int) bool { return curve[a].FreqMHz < curve[b].FreqMHz })
		return curve
	}
	ref := curve[0]
	for _, p := range curve[1:] {
		if p.FreqMHz > ref.FreqMHz || (p.FreqMHz == ref.FreqMHz && p.MemFreqMHz > ref.MemFreqMHz) {
			ref = p
		}
	}
	cands := curve[:0]
	for _, p := range curve {
		if p.PowerWatts < ref.PowerWatts && p.TimeSec > ref.TimeSec {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].PowerWatts != cands[b].PowerWatts {
			return cands[a].PowerWatts < cands[b].PowerWatts
		}
		if cands[a].FreqMHz != cands[b].FreqMHz {
			return cands[a].FreqMHz < cands[b].FreqMHz
		}
		return cands[a].MemFreqMHz < cands[b].MemFreqMHz
	})
	out := make([]objective.Profile, 0, len(cands)+1)
	bestT := math.Inf(1)
	for _, p := range cands {
		if p.TimeSec < bestT {
			out = append(out, p)
			bestT = p.TimeSec
		}
	}
	return append(out, ref)
}

// Profile runs the online phase for every job (one profiling run each at
// the maximum clock) and caches the predicted DVFS curves, fanning the
// per-job work over Config.Workers goroutines. Job names must be unique
// and non-empty. The cached curves are bit-identical for any worker count,
// and on error the reported failure is the one with the lowest job index,
// exactly as the serial loop would have surfaced it.
func (p *Planner) Profile(jobs []Job) error {
	if len(jobs) == 0 {
		return errors.New("sched: no jobs")
	}
	seen := map[string]bool{}
	for i, j := range jobs {
		if j.Name == "" {
			return fmt.Errorf("sched: job %d has no name", i)
		}
		if seen[j.Name] {
			return fmt.Errorf("sched: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
	}

	results := make([]profiled, len(jobs))
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			results[i] = p.profileJob(i, j)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = p.profileJob(i, jobs[i])
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	for _, r := range results {
		if r.err != nil {
			return r.err
		}
	}
	p.clamped = core.Clamps{}
	for i, j := range jobs {
		p.profiles[j.Name] = results[i].curve
		p.clamped.Add(results[i].clamped)
	}
	p.jobs = append([]Job(nil), jobs...)
	return nil
}

// Clamped reports how many per-point predictions hit the power or
// slowdown safety floors during the last Profile — non-zero means the
// models were undertrained for some of the fleet's jobs.
func (p *Planner) Clamped() int { return p.clamped.Total() }

// ClampedCounts is Clamped split by design-space axis (core vs memory).
func (p *Planner) ClampedCounts() core.Clamps { return p.clamped }

// jobState tracks one job's position on its DVFS curve during planning.
type jobState struct {
	job    Job
	curve  []objective.Profile
	idx    int     // current index into curve (ascending by frequency)
	minIdx int     // lowest index the job's slowdown threshold permits
	refT   float64 // predicted time at max clock
}

func (s *jobState) current() objective.Profile { return s.curve[s.idx] }

func (s *jobState) slowdown(i int) float64 {
	return s.curve[i].TimeSec/s.refT - 1
}

// Plan assigns frequencies so the fleet's predicted power fits
// budgetWatts. Profile must have been called first.
func (p *Planner) Plan(budgetWatts float64) (Plan, error) {
	if len(p.jobs) == 0 {
		return Plan{}, errors.New("sched: Profile must run before Plan")
	}
	if budgetWatts <= 0 {
		return Plan{}, fmt.Errorf("sched: non-positive budget %v", budgetWatts)
	}

	states := make([]*jobState, len(p.jobs))
	total := 0.0
	for i, j := range p.jobs {
		curve := p.profiles[j.Name]
		st := &jobState{job: j, curve: curve, idx: len(curve) - 1}
		st.refT = curve[len(curve)-1].TimeSec
		maxSlow := j.maxSlowdown()
		st.minIdx = len(curve) - 1
		for k := 0; k < len(curve); k++ {
			if st.slowdown(k) <= maxSlow {
				st.minIdx = k
				break
			}
		}
		states[i] = st
		total += curve[st.idx].PowerWatts * float64(j.gpus())
	}

	// Greedy marginal descent: step down the job with the best
	// watts-saved per slowdown-added ratio until the budget fits.
	for total > budgetWatts {
		best := -1
		bestRatio := -1.0
		for i, st := range states {
			if st.idx <= st.minIdx {
				continue
			}
			cur, next := st.curve[st.idx], st.curve[st.idx-1]
			dPower := (cur.PowerWatts - next.PowerWatts) * float64(st.job.gpus())
			dSlow := st.slowdown(st.idx-1) - st.slowdown(st.idx)
			if dPower <= 0 {
				// Stepping down is free (or better) in power terms only
				// if the model predicts a flat spot; skip zero-gain moves.
				continue
			}
			ratio := dPower / math.Max(dSlow, 1e-9)
			if ratio > bestRatio {
				bestRatio, best = ratio, i
			}
		}
		if best == -1 {
			break // every job pinned at its threshold
		}
		st := states[best]
		total -= (st.curve[st.idx].PowerWatts - st.curve[st.idx-1].PowerWatts) * float64(st.job.gpus())
		st.idx--
	}

	plan := Plan{BudgetWatts: budgetWatts, FitsBudget: total <= budgetWatts}
	for _, st := range states {
		cur := st.current()
		refE := st.curve[len(st.curve)-1].Energy()
		plan.Assignments = append(plan.Assignments, Assignment{
			Job:         st.job.Name,
			GPUs:        st.job.gpus(),
			FreqMHz:     cur.FreqMHz,
			MemFreqMHz:  cur.MemFreqMHz,
			PowerWatts:  cur.PowerWatts,
			SlowdownPct: st.slowdown(st.idx) * 100,
			EnergyPct:   (refE - cur.Energy()) / refE * 100,
		})
	}
	plan.TotalPowerWatts = total
	return plan, nil
}

// MinFeasibleBudget returns the fleet power when every job runs at the
// lowest frequency its slowdown threshold permits — the tightest budget
// Plan can satisfy.
func (p *Planner) MinFeasibleBudget() (float64, error) {
	if len(p.jobs) == 0 {
		return 0, errors.New("sched: Profile must run before MinFeasibleBudget")
	}
	total := 0.0
	for _, j := range p.jobs {
		curve := p.profiles[j.Name]
		refT := curve[len(curve)-1].TimeSec
		maxSlow := j.maxSlowdown()
		idx := len(curve) - 1
		for k := 0; k < len(curve); k++ {
			if curve[k].TimeSec/refT-1 <= maxSlow {
				idx = k
				break
			}
		}
		total += curve[idx].PowerWatts * float64(j.gpus())
	}
	return total, nil
}
