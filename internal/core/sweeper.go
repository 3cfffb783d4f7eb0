package core

import (
	"errors"
	"fmt"
	"sync"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/mat"
	"gpudvfs/internal/objective"
)

// Sweeper is the serving-grade form of the online phase for one
// (target architecture, core-frequency list, memory-clock list) triple.
// With a memory axis the design space is the (core × mem) grid, laid out
// memory-outer: grid point g predicts core clock freqs[g%len(freqs)] at
// memory clock memFreqs[g/len(freqs)]. Without one (memFreqs nil) the
// sweeper is exactly the historical 1-D core-frequency sweep,
// bit-identical output included.
//
// Everything that does not depend on the profiling run is pre-resolved at
// construction: the clock and mem-clock feature column indices and their
// per-grid-point values *after scaling* (the static plane). Pooled,
// grow-only workspaces carry the static columns pre-staged, so each sweep
// only scales the mean-sample features once per run (one row through the
// scaler, not one per grid point), broadcasts them into the dynamic
// columns, and runs one batch inference per model. At steady state a
// sweep performs zero heap allocations.
//
// Only rows the models can tell apart are inferred. When the feature
// layout has no mem_app_clock column, every memory clock sees the same
// feature row for a given core clock, so the sweeper infers one row per
// core clock and composes all grid points from them; models that carry
// the memory feature infer the full grid.
//
// Pre-scaling the static plane relies on the stats.Scaler contract that
// scaling is element-wise per column (each output element depends only on
// its own input element and the fitted column parameters), which both
// shipped scalers satisfy; that is what makes the staged columns
// bit-identical to scaling every full row per call. The scaler is bound
// at construction — retraining models invalidates existing sweepers.
//
// A Sweeper is safe for concurrent use: each in-flight call owns one
// pooled workspace, and the underlying nn.Predictor pool provides the same
// guarantee for the forward passes.
type Sweeper struct {
	models   *Models
	target   backend.Arch
	freqs    []float64
	memFreqs []float64 // nil: 1-D core-only sweep
	defMem   float64   // default memory P-state, 0 when target has no memory axis
	nGrid    int       // len(freqs) × max(1, len(memFreqs))
	nRows    int       // rows inferred per run: nGrid, or len(freqs) when memIdx < 0

	clockIdx int // index of sm_app_clock in the feature layout, -1 if absent
	memIdx   int // index of mem_app_clock, -1 if absent
	dynIdx   []int
	// The static plane: feature-column values that depend only on the grid
	// point, already scaled. scaledClock is indexed by core-frequency
	// index, scaledMem by memory-clock index (one entry meaning "default
	// state" when there is no memory axis).
	scaledClock []float64
	scaledMem   []float64

	pool sync.Pool // *batchWS, grow-only over batch size
}

// batchWS is one in-flight sweep's workspace: the stacked
// (B·nRows) × len(features) sweep matrix and its prediction columns. All
// buffers are grow-only, so a workspace that has served the largest batch
// once serves every later batch without allocating. stagedRows tracks how
// many leading rows of x carry valid static columns, so statics are
// re-staged only when the backing array is reallocated or the batch
// grows past everything staged before.
type batchWS struct {
	base       []float64   // feature vector of one run's mean sample at max clock
	baseRow    [][]float64 // one-row view of base, for the in-place scaler
	x          *mat.Matrix // (B·nRows) × len(features) sweep matrix
	pP         *mat.Matrix // power predictions, (B·nRows) × 1
	tP         *mat.Matrix // time predictions, (B·nRows) × 1
	stagedRows int
}

// reshapeMat resizes *m to rows×cols, reusing its backing array when it is
// large enough (the same grow-only contract nn's workspaces use). grew
// reports whether a fresh backing array was allocated.
func reshapeMat(m **mat.Matrix, rows, cols int) (_ *mat.Matrix, grew bool) {
	if *m == nil || cap((*m).Data) < rows*cols {
		*m = mat.New(rows, cols)
		return *m, true
	}
	(*m).Rows, (*m).Cols = rows, cols
	(*m).Data = (*m).Data[:rows*cols]
	return *m, false
}

// NewSweeper builds a sweeper over the (freqs × memFreqs) design grid on
// target. memFreqs nil selects the historical 1-D core-only sweep;
// non-nil entries must be memory P-states the target supports. The
// feature layout, model shapes, and the static plane are resolved once
// here so the per-call path cannot fail on them.
func (m *Models) NewSweeper(target backend.Arch, freqs, memFreqs []float64) (*Sweeper, error) {
	if m.Power == nil || m.Time == nil {
		return nil, errors.New("core: sweeper needs trained power and time models")
	}
	if target.MaxFreqMHz <= 0 {
		return nil, fmt.Errorf("core: target %q has non-positive max clock %v", target.Name, target.MaxFreqMHz)
	}
	if err := m.CheckDVFS(target); err != nil {
		return nil, err
	}
	defMem := target.DefaultMemClock()
	if memFreqs != nil {
		if len(memFreqs) == 0 {
			return nil, errors.New("core: empty memory-clock list (use nil for a core-only sweep)")
		}
		if defMem <= 0 {
			return nil, fmt.Errorf("core: target %q has no memory axis", target.Name)
		}
		for _, f := range memFreqs {
			if !target.IsSupportedMemClock(f) {
				return nil, fmt.Errorf("core: target %q does not support memory clock %v MHz (have %v)", target.Name, f, target.MemClocks())
			}
		}
	}
	// Resolve the feature layout once; FeatureVectorInto can only fail on
	// unknown names, so surfacing that here keeps the hot path error-free.
	if err := dataset.FeatureVectorInto(make([]float64, len(m.Features)), m.Features, dcgm.Sample{}, target.MaxFreqMHz, target.MaxFreqMHz); err != nil {
		return nil, err
	}
	s := &Sweeper{
		models:   m,
		target:   target,
		freqs:    append([]float64(nil), freqs...),
		memFreqs: append([]float64(nil), memFreqs...),
		defMem:   defMem,
		nGrid:    len(freqs),
		clockIdx: -1,
		memIdx:   -1,
	}
	if memFreqs != nil {
		s.nGrid = len(freqs) * len(memFreqs)
	} else {
		s.memFreqs = nil // preserve nil-ness through the copy
	}
	for i, name := range m.Features {
		switch {
		case name == "sm_app_clock" && s.clockIdx < 0:
			s.clockIdx = i
		case name == dataset.MemFeature && s.memIdx < 0:
			s.memIdx = i
		default:
			// Duplicate clock-feature occurrences ride the dynamic path:
			// their base value (the scaled default-state ratio) is what the
			// historical full-row rebuild put there too.
			s.dynIdx = append(s.dynIdx, i)
		}
	}
	// Without a mem_app_clock column no feature sees the memory clock:
	// grid points that share a core clock share a feature row, so each
	// such row is inferred once.
	s.nRows = s.nGrid
	if s.memIdx < 0 {
		s.nRows = len(s.freqs)
	}

	// Build the static plane: the per-grid-point clock and mem values, as
	// FeatureVector(Grid)Into computes them, pushed through the scaler once.
	clockVals := make([]float64, len(s.freqs))
	for i, f := range s.freqs {
		clockVals[i] = f / target.MaxFreqMHz
	}
	memVals := []float64{dataset.MemRatio(0, defMem)} // the default state: exactly 1
	if s.memFreqs != nil {
		memVals = make([]float64, len(s.memFreqs))
		for i, f := range s.memFreqs {
			memVals[i] = dataset.MemRatio(f, defMem)
		}
	}
	var err error
	if s.scaledClock, err = m.scaleColumn(s.clockIdx, clockVals); err != nil {
		return nil, fmt.Errorf("core: scaling clock plane: %w", err)
	}
	if s.scaledMem, err = m.scaleColumn(s.memIdx, memVals); err != nil {
		return nil, fmt.Errorf("core: scaling mem plane: %w", err)
	}

	nf := len(m.Features)
	s.pool.New = func() any {
		ws := &batchWS{base: make([]float64, nf)}
		ws.baseRow = [][]float64{ws.base}
		return ws
	}
	return s, nil
}

// scaleColumn pushes per-grid-point values for feature column j through
// the models' scaler, one value at a time in an otherwise-zero row, and
// returns the scaled values. Column independence of the scaler makes the
// surrounding zeros irrelevant. A nil scaler or absent column (j < 0)
// returns the values unchanged.
func (m *Models) scaleColumn(j int, vals []float64) ([]float64, error) {
	out := append([]float64(nil), vals...)
	if m.Scaler == nil || j < 0 {
		return out, nil
	}
	row := make([]float64, len(m.Features))
	rows := [][]float64{row}
	for i, v := range vals {
		for k := range row {
			row[k] = 0
		}
		row[j] = v
		if err := m.Scaler.TransformInto(rows, rows); err != nil {
			return nil, err
		}
		out[i] = row[j]
	}
	return out, nil
}

// stageStatic writes the pre-scaled static clock/mem columns into rows
// [lo, hi) of a (stacked) sweep matrix. Row r corresponds to grid point
// r%nRows; the grid is memory-outer, core-inner.
func (s *Sweeper) stageStatic(x *mat.Matrix, lo, hi int) {
	nF := len(s.freqs)
	for r := lo; r < hi; r++ {
		row := x.Row(r)
		g := r % s.nRows
		if s.clockIdx >= 0 {
			row[s.clockIdx] = s.scaledClock[g%nF]
		}
		if s.memIdx >= 0 {
			row[s.memIdx] = s.scaledMem[g/nF]
		}
	}
}

// fillDynamic broadcasts the scaled mean-sample features into the dynamic
// columns of rows [off, off+nRows) of a sweep matrix whose static columns
// are already staged.
func (s *Sweeper) fillDynamic(x *mat.Matrix, off int, scaledBase []float64) {
	for g := 0; g < s.nRows; g++ {
		row := x.Row(off + g)
		for _, j := range s.dynIdx {
			row[j] = scaledBase[j]
		}
	}
}

// scaleBase builds the profiling run's feature vector into base and
// scales it in place through baseRow — one row through the scaler per
// call, regardless of grid size.
func (s *Sweeper) scaleBase(base []float64, baseRow [][]float64, mean dcgm.Sample) error {
	m := s.models
	if err := dataset.FeatureVectorInto(base, m.Features, mean, s.target.MaxFreqMHz, s.target.MaxFreqMHz); err != nil {
		return err
	}
	if m.Scaler != nil {
		if err := m.Scaler.TransformInto(baseRow, baseRow); err != nil {
			return fmt.Errorf("core: scaling features: %w", err)
		}
	}
	return nil
}

// compose turns prediction rows [off, off+nRows) into the profiles of
// all nGrid grid points, grid point g reading row g%nRows, and
// accumulates clamp counts per axis: grid points at an off-default memory
// clock count as Mem, everything else as Core.
func (s *Sweeper) compose(dst []objective.Profile, cl *Clamps, pP, tP *mat.Matrix, off int, execTimeSec float64) {
	nF := len(s.freqs)
	for g := 0; g < s.nGrid; g++ {
		power := pP.At(off+g%s.nRows, 0) * s.target.TDPWatts
		slow := tP.At(off+g%s.nRows, 0)
		// Floor pathological predictions at 1 W / 1e-6 slowdown so
		// downstream EDP math stays well defined even for badly
		// undertrained models — but count every clamp so they are visible.
		mem := 0.0
		onMem := false
		if s.memFreqs != nil {
			mem = s.memFreqs[g/nF]
			onMem = mem != s.defMem
		}
		if power < 1 {
			power = 1
			if onMem {
				cl.Mem++
			} else {
				cl.Core++
			}
		}
		if slow < 1e-6 {
			slow = 1e-6
			if onMem {
				cl.Mem++
			} else {
				cl.Core++
			}
		}
		dst[g] = objective.Profile{
			FreqMHz:    s.freqs[g%nF],
			MemFreqMHz: mem,
			PowerWatts: power,
			TimeSec:    execTimeSec * slow,
		}
	}
}

// Freqs returns the sweep's core-frequency list (not a copy; callers must
// not modify it).
func (s *Sweeper) Freqs() []float64 { return s.freqs }

// MemFreqs returns the sweep's memory-clock list, nil for a 1-D core-only
// sweep (not a copy; callers must not modify it).
func (s *Sweeper) MemFreqs() []float64 { return s.memFreqs }

// GridSize returns the number of design points one sweep predicts:
// len(Freqs()) × max(1, len(MemFreqs())) — the buffer length
// PredictProfileInto requires.
func (s *Sweeper) GridSize() int { return s.nGrid }

// Target returns the architecture the sweeper predicts for.
func (s *Sweeper) Target() backend.Arch { return s.target }

// matches reports whether the sweeper was built for exactly this target,
// frequency list, and memory-clock list (the fields prediction depends on).
func (s *Sweeper) matches(target backend.Arch, freqs, memFreqs []float64) bool {
	if s.target.Name != target.Name || s.target.MaxFreqMHz != target.MaxFreqMHz || s.target.TDPWatts != target.TDPWatts {
		return false
	}
	if len(s.freqs) != len(freqs) || (s.memFreqs == nil) != (memFreqs == nil) || len(s.memFreqs) != len(memFreqs) {
		return false
	}
	for i, f := range freqs {
		if s.freqs[i] != f {
			return false
		}
	}
	for i, f := range memFreqs {
		if s.memFreqs[i] != f {
			return false
		}
	}
	return true
}

// ValidateRun applies the online phase's profiling-run preconditions
// without predicting anything; every sweep runs it first. Profiling must
// happen at the maximum core clock and the default memory P-state — the
// grid corner every other design point is extrapolated from. Serving
// layers call it to reject a bad request before it is queued, keeping
// the fused batch path error-free.
func (s *Sweeper) ValidateRun(maxRun dcgm.Run) error {
	if len(maxRun.Samples) == 0 {
		return errors.New("core: profiling run has no samples")
	}
	if maxRun.FreqMHz != s.target.MaxFreqMHz {
		return fmt.Errorf("core: profiling run was at %v MHz, want the maximum clock %v MHz", maxRun.FreqMHz, s.target.MaxFreqMHz)
	}
	if maxRun.MemFreqMHz != 0 && maxRun.MemFreqMHz != s.defMem {
		return fmt.Errorf("core: profiling run was at memory clock %v MHz, want the default P-state %v MHz", maxRun.MemFreqMHz, s.defMem)
	}
	if maxRun.ExecTimeSec <= 0 {
		return fmt.Errorf("core: profiling run has non-positive exec time %v", maxRun.ExecTimeSec)
	}
	return nil
}

// PredictProfileInto runs the online phase for one profiling run, writing
// one predicted profile per design point into dst (which must have
// GridSize() entries; grid point g is core clock Freqs()[g%len(Freqs())]
// at memory clock MemFreqs()[g/len(Freqs())]). It returns how many
// predictions had to be clamped to the power/slowdown floors, split by
// axis — a signal that the models are undertrained for this workload,
// surfaced instead of silently masked.
//
// It is a batch of one through the PredictProfilesInto path: zero heap
// allocations at steady state and, without a memory axis, bit-identical
// to Models.PredictProfile's historical 1-D output.
func (s *Sweeper) PredictProfileInto(dst []objective.Profile, maxRun dcgm.Run) (Clamps, error) {
	if err := s.ValidateRun(maxRun); err != nil {
		return Clamps{}, err
	}
	if len(dst) != s.nGrid {
		return Clamps{}, fmt.Errorf("core: profile buffer has %d entries, sweep has %d design points", len(dst), s.nGrid)
	}
	dsts := [1][]objective.Profile{dst}
	runs := [1]dcgm.Run{maxRun}
	var clamped [1]Clamps
	err := s.predictBatch(dsts[:], clamped[:], runs[:])
	return clamped[0], err
}

// PredictProfilesInto runs the online phase for a batch of profiling runs
// through ONE fused forward pass per model: the runs' sweep rows are
// stacked into a single (len(runs)·rows-per-run) × features matrix and
// pushed through the power and time networks once, so the per-layer
// traversal cost is amortized across the whole batch. dsts[i] receives
// run i's profiles (each buffer must have GridSize() entries) and
// clamped[i] its per-axis safety-floor clamp counts.
//
// Every output value is bit-identical to calling PredictProfileInto once
// per run, at any batch size: the feature fill, the scaler, and the
// forward-pass kernels are all row-independent with an unchanged
// per-row summation order. Workspaces are pooled and grow-only (static
// columns re-staged only when the stacked matrix is reallocated or the
// batch outgrows what was staged), so steady-state batches of a stable
// size allocate nothing. Safe for concurrent use like PredictProfileInto.
func (s *Sweeper) PredictProfilesInto(dsts [][]objective.Profile, clamped []Clamps, runs []dcgm.Run) error {
	if len(dsts) != len(runs) || len(clamped) != len(runs) {
		return fmt.Errorf("core: batch sweep has %d runs but %d profile buffers and %d clamp slots", len(runs), len(dsts), len(clamped))
	}
	if len(runs) == 0 {
		return nil
	}
	for i, r := range runs {
		if err := s.ValidateRun(r); err != nil {
			return fmt.Errorf("core: batch run %d: %w", i, err)
		}
		if len(dsts[i]) != s.nGrid {
			return fmt.Errorf("core: batch profile buffer %d has %d entries, sweep has %d design points", i, len(dsts[i]), s.nGrid)
		}
	}
	return s.predictBatch(dsts, clamped, runs)
}

// predictBatch is the one sweep body behind PredictProfilesInto and
// PredictProfileInto, over runs and buffers already validated.
func (s *Sweeper) predictBatch(dsts [][]objective.Profile, clamped []Clamps, runs []dcgm.Run) error {
	m := s.models
	nf := len(m.Features)
	rows := len(runs) * s.nRows
	ws := s.pool.Get().(*batchWS)
	defer s.pool.Put(ws)
	x, grew := reshapeMat(&ws.x, rows, nf)
	if grew {
		ws.stagedRows = 0
	}
	if ws.stagedRows < rows {
		s.stageStatic(x, ws.stagedRows, rows)
		ws.stagedRows = rows
	}

	for bi := range runs {
		if err := s.scaleBase(ws.base, ws.baseRow, runs[bi].MeanSample()); err != nil {
			return err
		}
		s.fillDynamic(x, bi*s.nRows, ws.base)
	}
	pP, _ := reshapeMat(&ws.pP, rows, 1)
	tP, _ := reshapeMat(&ws.tP, rows, 1)
	if err := m.Power.Predictor().PredictMatInto(pP, x); err != nil {
		return fmt.Errorf("core: power prediction: %w", err)
	}
	if err := m.Time.Predictor().PredictMatInto(tP, x); err != nil {
		return fmt.Errorf("core: time prediction: %w", err)
	}
	for bi, run := range runs {
		var cl Clamps
		s.compose(dsts[bi], &cl, pP, tP, bi*s.nRows, run.ExecTimeSec)
		clamped[bi] = cl
	}
	return nil
}

// PredictProfile is the allocating convenience form of PredictProfileInto.
func (s *Sweeper) PredictProfile(maxRun dcgm.Run) ([]objective.Profile, Clamps, error) {
	out := make([]objective.Profile, s.nGrid)
	clamped, err := s.PredictProfileInto(out, maxRun)
	if err != nil {
		return nil, Clamps{}, err
	}
	return out, clamped, nil
}

// GridSweeperFor returns the memoized serving sweeper for (target, freqs,
// memFreqs): every caller asking for the same design space shares one
// Sweeper (and therefore one workspace pool), which is the concurrency
// model the serving layer and multi-governor deployments rely on. The
// memo keeps one slot per architecture name, rebuilt only when the target
// identity, frequency list, or memory axis changes: the common serving
// pattern is a stable design-space sweep per target.
func (m *Models) GridSweeperFor(target backend.Arch, freqs, memFreqs []float64) (*Sweeper, error) {
	m.swMu.Lock()
	defer m.swMu.Unlock()
	if sw := m.sweepers[target.Name]; sw != nil && sw.matches(target, freqs, memFreqs) {
		return sw, nil
	}
	sw, err := m.NewSweeper(target, freqs, memFreqs)
	if err != nil {
		return nil, err
	}
	if m.sweepers == nil {
		m.sweepers = map[string]*Sweeper{}
	}
	m.sweepers[target.Name] = sw
	return sw, nil
}
