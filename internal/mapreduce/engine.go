package mapreduce

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"proger/internal/costmodel"
	"proger/internal/faults"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// Run executes one MapReduce job. Input records are split contiguously
// among map tasks. startAt is the global time at which the job is
// submitted (chain jobs by passing the previous job's End).
//
// Execution is deterministic: identical inputs and config produce an
// identical Result, including all timestamps, regardless of Workers,
// Transport, MemBudget, or injected faults.
func Run(cfg Config, input []KeyValue, startAt costmodel.Units) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Partition == nil {
		cfg.Partition = HashPartitioner
	}
	if cfg.Cost == (costmodel.Model{}) {
		cfg.Cost = costmodel.Default()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	tracing := cfg.Trace != nil
	fr := newFaultRuntime(&cfg)
	splits := splitInput(input, cfg.NumMapTasks)

	// Live introspection: register the job's task DAG and hand every
	// execution layer the publication handle. lj is nil when live
	// introspection is off — all its methods no-op — and nothing below
	// ever reads it back, so it cannot perturb the deterministic run.
	lj := cfg.Live.StartJob(cfg.Name, cfg.NumMapTasks, cfg.NumReduceTasks)
	if fr != nil {
		fr.live = lj
	}

	// Task execution fills phaseOutputs — through the one task graph on
	// every transport — so everything below this point (the simulated
	// schedule, Result, spans, metrics, quality) is derived from the
	// committed task outputs alone.
	po := newPhaseOutputs(&cfg)
	// Budget stores hold host resources (spill files, budget accounts);
	// settle them even when the job errors out partway.
	defer po.closeStores()
	var err error
	if rt, ok := cfg.Transport.(RemoteTransport); ok {
		err = runRemoteJob(&cfg, rt, fr, lj, workers, splits, po)
	} else {
		err = runLocalJob(&cfg, fr, lj, workers, splits, po)
	}
	if err != nil {
		lj.End(err)
		return nil, err
	}
	mapRes, mapCosts := po.mapRes, po.mapCosts
	reduceRes, reduceCosts := po.reduceRes, po.reduceCosts

	jobStart := startAt
	mapPhaseStart := jobStart + cfg.Cost.JobSetup
	mapStarts, mapSlots, mapEnd := scheduleTasks(mapCosts, cfg.Cluster.Slots(), mapPhaseStart)

	reduceLens := make([]int, cfg.NumReduceTasks)
	for r, s := range po.shufRes {
		reduceLens[r] = s.in.Len()
	}
	reduceStarts, reduceSlots, end := scheduleTasks(reduceCosts, cfg.Cluster.Slots(), mapEnd)

	// Publish quality observations: rebase each committed task's local
	// clocks onto the scheduled timeline and feed the recorder serially
	// in task-index order — deterministic regardless of Workers, and
	// fault-immune because qobs rode inside the committed attempt's
	// result (exactly like output records and counters).
	if q := cfg.Quality; q.Enabled() {
		for i, r := range reduceRes {
			for _, o := range r.qobs {
				o.Task = i
				o.Start += reduceStarts[i]
				o.End += reduceStarts[i]
				q.ObserveBlock(o)
			}
		}
	}

	// Stamp global times and flatten output in (task, emission) order.
	var total int
	for _, r := range reduceRes {
		total += len(r.out)
	}
	output := make([]TimedKV, 0, total)
	for i, r := range reduceRes {
		for _, kv := range r.out {
			kv.Global = reduceStarts[i] + kv.Local
			output = append(output, kv)
		}
	}

	counters := Counters{}
	for _, r := range mapRes {
		counters.Merge(r.counters)
	}
	for _, r := range reduceRes {
		counters.Merge(r.counters)
	}
	res := &Result{
		Output:          output,
		Start:           jobStart,
		End:             end,
		MapEnd:          mapEnd,
		Counters:        counters,
		MapTaskCosts:    mapCosts,
		ReduceTaskCosts: reduceCosts,
		MapStarts:       mapStarts,
		ReduceStarts:    reduceStarts,
		MapSlots:        mapSlots,
		ReduceSlots:     reduceSlots,
	}

	if tracing {
		emitJobSpans(&cfg, fr, res, splits, reduceLens, po)
	}
	if m := cfg.Metrics; m != nil {
		m.AddCounters(counters)
		// Budget-forced spill stats are pure memory-pressure artifacts of
		// the host, so they live in the metrics registry, not in the
		// deterministic Result.Counters.
		if po.stores != nil {
			var forced, bytes int64
			for _, st := range po.stores {
				f, b := st.budgetStats()
				forced += f
				bytes += b
			}
			m.Counter(CounterBudgetForcedSpills).Add(forced)
			m.Counter(CounterBudgetSpilledBytes).Add(bytes)
		}
		h := m.Histogram(HistTaskCostUnits)
		for _, c := range mapCosts {
			h.Observe(float64(c))
		}
		for _, c := range reduceCosts {
			h.Observe(float64(c))
		}
		if fr != nil {
			// Attempt accounting, like spill counts, reflects chaos/host
			// knobs (the injector and retry policy), so it reports only
			// through the registry — Result stays byte-identical to the
			// fault-free run.
			st := fr.stats()
			m.Counter(CounterTaskAttempts).Add(st.started)
			m.Counter(CounterTaskRetries).Add(st.retried)
			m.Counter(CounterTaskSpeculations).Add(st.speculated)
			m.Counter(CounterTaskAttemptsKilled).Add(st.killed)
		}
	}
	lj.End(nil)
	return res, nil
}

// phaseOutputs is everything task execution produces, indexed by task.
// Each graph node writes only its own task's slots; the finalize half
// of Run derives the simulated schedule, Result, spans, metrics, and
// quality exports from the committed entries.
type phaseOutputs struct {
	mapRes      []mapTaskResult
	mapCosts    []costmodel.Units
	shufRes     []shuffleTaskResult
	shufCosts   []costmodel.Units
	reduceRes   []reduceTaskResult
	reduceCosts []costmodel.Units
	// stores holds each partition's budget-governed reduce input (nil
	// without a MemBudget). Committed map runs go straight into them, so
	// the budget manager, not the engine, decides what stays resident.
	stores []*spillStore
	// Host wall-clock measurements per stage; allocated (and recorded)
	// only when tracing. Wall data never feeds the simulated timeline.
	mapWall, shufWall, reduceWall []wallSpan
}

func newPhaseOutputs(cfg *Config) *phaseOutputs {
	M, R := cfg.NumMapTasks, cfg.NumReduceTasks
	po := &phaseOutputs{
		mapRes:      make([]mapTaskResult, M),
		mapCosts:    make([]costmodel.Units, M),
		shufRes:     make([]shuffleTaskResult, R),
		shufCosts:   make([]costmodel.Units, R),
		reduceRes:   make([]reduceTaskResult, R),
		reduceCosts: make([]costmodel.Units, R),
	}
	if cfg.Trace != nil {
		po.mapWall = make([]wallSpan, M)
		po.shufWall = make([]wallSpan, R)
		po.reduceWall = make([]wallSpan, R)
	}
	return po
}

// closeStores releases the budget stores' spill files and accounts.
func (po *phaseOutputs) closeStores() {
	for _, st := range po.stores {
		st.Close()
	}
}

// commitMap hands map task m's committed runs to the partition stores
// (budget mode only) and drops the task's own references: from here on,
// residency of its records is the budget manager's call.
func (po *phaseOutputs) commitMap(m int) error {
	if po.stores == nil {
		return nil
	}
	for r, st := range po.stores {
		if err := st.addRun(m, po.mapRes[m].out[r]); err != nil {
			return err
		}
	}
	po.mapRes[m].out = nil
	return nil
}

// shuffleInput assembles partition r's reduce input once every map
// task has committed: the budget store the map tasks fed, or the stable
// k-way merge of their pre-sorted in-memory runs.
func (po *phaseOutputs) shuffleInput(r int) reduceInput {
	if po.stores != nil {
		return po.stores[r]
	}
	runs := make([][]KeyValue, 0, len(po.mapRes))
	n := 0
	for _, mr := range po.mapRes {
		if run := mr.out[r]; len(run) > 0 {
			runs = append(runs, run)
			n += len(run)
		}
	}
	return memInput{kvs: mergeSortedRuns(runs, n)}
}

// runLocalJob executes the job in this process: the graph's task
// bodies call the deterministic task functions directly.
func runLocalJob(cfg *Config, fr *faultRuntime, lj *live.Job, workers int, splits [][]KeyValue, po *phaseOutputs) error {
	if cfg.MemBudget != nil {
		po.stores = make([]*spillStore, cfg.NumReduceTasks)
		for r := range po.stores {
			po.stores[r] = newSpillStore(cfg, r)
		}
	}
	mExec := observed(lj, live.PhaseMap, po.mapWall, func(m int) (mapTaskResult, costmodel.Units, int, error) {
		out, cost, counters, spans, err := runMapTask(cfg, m, splits[m])
		lens := make([]int, len(out))
		for r, part := range out {
			lens[r] = len(part)
		}
		return mapTaskResult{out: out, partLens: lens, counters: counters, spans: spans}, cost, len(splits[m]), err
	})
	sExec := observed(lj, live.PhaseShuffle, po.shufWall, func(r int) (shuffleTaskResult, costmodel.Units, int, error) {
		// The merge has no scheduled cost of its own (the reduce tasks
		// price shuffling on the simulated clock); the attempt runtime
		// keys timeouts and speculation off its simulated sort cost.
		in := po.shuffleInput(r)
		return shuffleTaskResult{in: in}, cfg.Cost.ShuffleSortCost(in.Len()), in.Len(), nil
	})
	rExec := observed(lj, live.PhaseReduce, po.reduceWall, func(i int) (reduceTaskResult, costmodel.Units, int, error) {
		in := po.shufRes[i].in
		out, cost, counters, spans, qobs, err := runReduceTask(cfg, i, in)
		return reduceTaskResult{out: out, counters: counters, spans: spans, qobs: qobs}, cost, in.Len(), err
	})
	return runJobGraph(cfg, fr, workers, po, mExec, sExec, rExec)
}

// observed wraps one phase's task body with the bookkeeping every
// execution shares, whichever transport runs it: the live
// start/done/failed transition (each execution — first attempt, retry,
// speculative backup — reports its own) and, when tracing, the host
// wall span. Re-executions overwrite the wall measurement, never the
// committed deterministic output. body returns the record count the
// live task table shows.
func observed[T any](lj *live.Job, p live.Phase, wall []wallSpan,
	body func(i int) (T, costmodel.Units, int, error)) func(i int) (T, costmodel.Units, error) {
	return func(i int) (T, costmodel.Units, error) {
		lj.TaskStart(p, i)
		var w0 time.Time
		if wall != nil {
			w0 = time.Now()
		}
		out, cost, records, err := body(i)
		if err != nil {
			lj.TaskFailed(p, i, err)
			var zero T
			return zero, 0, err
		}
		if wall != nil {
			wall[i] = wallSpan{w0, time.Since(w0)}
		}
		lj.TaskDone(p, i, float64(cost), records)
		return out, cost, nil
	}
}

// mapTaskResult, shuffleTaskResult, and reduceTaskResult bundle each
// phase's per-task outcome for the attempt runtime. Committed outputs
// are compared across attempts during speculation (attemptEqual), over
// the deterministic fields only: worker, the executor attribution a
// remote transport reports beside the result, is observability data
// and never part of the comparison.
type mapTaskResult struct {
	// out holds the pre-sorted run per partition. It is nil on a remote
	// master (runs live in shared files) and once budget stores own the
	// runs; partLens keeps the per-partition record counts either way.
	out      [][]KeyValue
	partLens []int
	counters Counters
	spans    []obs.Span
	worker   int
}

type shuffleTaskResult struct {
	in     reduceInput
	worker int
}

type reduceTaskResult struct {
	out      []TimedKV
	counters Counters
	spans    []obs.Span
	qobs     []quality.BlockObs
	worker   int
}

// wallSpan is a host wall-clock measurement of one engine stage.
type wallSpan struct {
	start time.Time
	dur   time.Duration
}

// emitJobSpans publishes the job's timeline to the tracer: one span
// per map/reduce task and per shuffle merge, plus every task-local
// span recorded through TaskContext.Span, rebased from the task-local
// clock onto the global simulated timeline. The shuffle-merge spans
// carry the host wall time of the real merge; their simulated position
// is the map barrier (the reduce tasks separately account shuffle cost
// on the simulated clock as task-local "shuffle" spans). With the
// attempt runtime active, every task attempt additionally gets an
// "attempt" span on the shadow attempt timeline.
func emitJobSpans(cfg *Config, fr *faultRuntime, res *Result, splits [][]KeyValue, reduceLens []int, po *phaseOutputs) {
	tr := cfg.Trace
	pid := tr.PID(cfg.Name)
	rebase := func(spans []obs.Span, tid int, start costmodel.Units) {
		for _, s := range spans {
			s.PID, s.TID = pid, tid
			s.Start += start
			tr.Add(s)
		}
	}
	for i, cost := range res.MapTaskCosts {
		tr.Add(obs.Span{
			Cat: "map", Name: fmt.Sprintf("map %d", i),
			PID: pid, TID: res.MapSlots[i],
			Start: res.MapStarts[i], Dur: cost,
			WallStart: po.mapWall[i].start, WallDur: po.mapWall[i].dur,
			Args: []obs.Arg{obs.A("records", len(splits[i]))},
		})
		rebase(po.mapRes[i].spans, res.MapSlots[i], res.MapStarts[i])
	}
	for r := range reduceLens {
		tr.Add(obs.Span{
			Cat: "shuffle", Name: fmt.Sprintf("shuffle merge r%d (host)", r),
			PID: pid, TID: res.ReduceSlots[r],
			Start: res.MapEnd, Dur: 0,
			WallStart: po.shufWall[r].start, WallDur: po.shufWall[r].dur,
			Args: []obs.Arg{obs.A("records", reduceLens[r])},
		})
	}
	for i, cost := range res.ReduceTaskCosts {
		tr.Add(obs.Span{
			Cat: "reduce", Name: fmt.Sprintf("reduce %d", i),
			PID: pid, TID: res.ReduceSlots[i],
			Start: res.ReduceStarts[i], Dur: cost,
			WallStart: po.reduceWall[i].start, WallDur: po.reduceWall[i].dur,
			Args: []obs.Arg{obs.A("records", reduceLens[i])},
		})
		rebase(po.reduceRes[i].spans, res.ReduceSlots[i], res.ReduceStarts[i])
	}
	if fr != nil {
		fr.emitAttemptSpans(tr, pid, faults.Map, func(t int) (costmodel.Units, int) {
			return res.MapStarts[t], res.MapSlots[t]
		})
		fr.emitAttemptSpans(tr, pid, faults.Shuffle, func(t int) (costmodel.Units, int) {
			return res.MapEnd, res.ReduceSlots[t]
		})
		fr.emitAttemptSpans(tr, pid, faults.Reduce, func(t int) (costmodel.Units, int) {
			return res.ReduceStarts[t], res.ReduceSlots[t]
		})
	}
}

// mergeSortedRuns stably merges key-sorted runs given in priority
// (map-task) order; total is the combined length. Equal keys surface in
// run order, then in within-run order — byte-identical to stably
// sorting the concatenation of the runs.
func mergeSortedRuns(runs [][]KeyValue, total int) []KeyValue {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	case 2:
		// Two-way fast path: the common small-job shape.
		return mergeTwo(runs[0], runs[1])
	}
	// Index-based loser tree over the run cursors: the same tournament
	// extsort.Merger plays, specialized to slice sources so the hot loop
	// avoids pull closures and record copies. Leaf s sits at node k+s;
	// tree[1..k-1] store match losers, tree[0] the winner.
	k := len(runs)
	cursors := make([]int, k)
	heads := make([]string, k) // current key per run; done runs hold ""
	done := make([]bool, k)
	for s, run := range runs {
		heads[s] = run[0].Key // runs are non-empty by construction
	}
	beats := func(a, b int) bool {
		if done[a] || done[b] {
			return !done[a]
		}
		if heads[a] != heads[b] {
			return heads[a] < heads[b]
		}
		return a < b // ties go to the earlier map task
	}
	tree := make([]int, k)
	winners := make([]int, 2*k)
	for s := 0; s < k; s++ {
		winners[k+s] = s
	}
	for n := k - 1; n >= 1; n-- {
		a, b := winners[2*n], winners[2*n+1]
		if beats(a, b) {
			winners[n], tree[n] = a, b
		} else {
			winners[n], tree[n] = b, a
		}
	}
	tree[0] = winners[1]

	out := make([]KeyValue, 0, total)
	for len(out) < total {
		s := tree[0]
		out = append(out, runs[s][cursors[s]])
		cursors[s]++
		if cursors[s] < len(runs[s]) {
			heads[s] = runs[s][cursors[s]].Key
		} else {
			heads[s] = ""
			done[s] = true
		}
		winner := s
		for n := (k + s) / 2; n >= 1; n /= 2 {
			if beats(tree[n], winner) {
				winner, tree[n] = tree[n], winner
			}
		}
		tree[0] = winner
	}
	return out
}

// mergeTwo stably merges two key-sorted runs; a takes ties (it must
// hold the lower map-task range). An empty side aliases the other run
// unchanged — reduce inputs are read-only, so sharing is safe.
func mergeTwo(a, b []KeyValue) []KeyValue {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]KeyValue, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Key <= b[j].Key { // ties go to the earlier map task
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// splitInput divides input into n contiguous, near-equal splits.
func splitInput(input []KeyValue, n int) [][]KeyValue {
	splits := make([][]KeyValue, n)
	total := len(input)
	for i := 0; i < n; i++ {
		lo := total * i / n
		hi := total * (i + 1) / n
		splits[i] = input[lo:hi]
	}
	return splits
}

// scheduleTasks assigns tasks (in index order) to the earliest-free of
// `slots` slots, all free at phaseStart, returning each task's start
// time, the slot it ran on, and the phase end time. This mirrors
// Hadoop's slot scheduler with speculative execution disabled (§VI-A1).
func scheduleTasks(costs []costmodel.Units, slots int, phaseStart costmodel.Units) (starts []costmodel.Units, slotOf []int, phaseEnd costmodel.Units) {
	free := make([]costmodel.Units, slots)
	for i := range free {
		free[i] = phaseStart
	}
	starts = make([]costmodel.Units, len(costs))
	slotOf = make([]int, len(costs))
	phaseEnd = phaseStart
	for t, c := range costs {
		best := 0
		for s := 1; s < slots; s++ {
			if free[s] < free[best] {
				best = s
			}
		}
		starts[t] = free[best]
		slotOf[t] = best
		free[best] += c
		if free[best] > phaseEnd {
			phaseEnd = free[best]
		}
	}
	return starts, slotOf, phaseEnd
}

// mapEmitter buffers map output per partition, charging emission cost.
type mapEmitter struct {
	ctx       *TaskContext
	cfg       *Config
	partition Partitioner
	out       [][]KeyValue
}

// Emit implements Emitter.
func (e *mapEmitter) Emit(key string, value []byte) {
	e.ctx.Charge(e.cfg.Cost.EmitRecord)
	p := e.partition(key, e.cfg.NumReduceTasks)
	if p < 0 || p >= e.cfg.NumReduceTasks {
		panic(fmt.Sprintf("mapreduce: partitioner returned %d for %d reduce tasks", p, e.cfg.NumReduceTasks))
	}
	e.out[p] = append(e.out[p], KeyValue{Key: key, Value: value})
}

func runMapTask(cfg *Config, index int, split []KeyValue) ([][]KeyValue, costmodel.Units, Counters, []obs.Span, error) {
	ctx := &TaskContext{
		Job:       cfg.Name,
		Type:      MapTask,
		Index:     index,
		NumReduce: cfg.NumReduceTasks,
		Side:      cfg.Side,
		Cost:      cfg.Cost,
		counters:  Counters{},
		tracing:   cfg.Trace != nil,
	}
	ctx.Charge(cfg.Cost.TaskStartup)
	mapper := cfg.NewMapper()
	emitter := &mapEmitter{ctx: ctx, cfg: cfg, partition: cfg.Partition, out: make([][]KeyValue, cfg.NumReduceTasks)}
	if err := mapper.Setup(ctx); err != nil {
		return nil, 0, nil, nil, fmt.Errorf("mapreduce: %s map task %d setup: %w", cfg.Name, index, err)
	}
	for _, rec := range split {
		ctx.Charge(cfg.Cost.ReadRecord)
		if err := mapper.Map(ctx, rec, emitter); err != nil {
			return nil, 0, nil, nil, fmt.Errorf("mapreduce: %s map task %d: %w", cfg.Name, index, err)
		}
	}
	if err := mapper.Cleanup(ctx, emitter); err != nil {
		return nil, 0, nil, nil, fmt.Errorf("mapreduce: %s map task %d cleanup: %w", cfg.Name, index, err)
	}
	var outRecs int
	for _, p := range emitter.out {
		outRecs += len(p)
	}
	ctx.Inc(CounterMapInRecords, int64(len(split)))
	ctx.Inc(CounterMapOutRecords, int64(outRecs))
	// Map-side sort: leave every partition stably key-sorted so the
	// shuffle can merge runs instead of re-sorting concatenations. The
	// sort is real-machine work the simulation prices on the reduce side
	// (ShuffleSortCost), so no extra Charge happens here — moving the
	// work cannot alter the simulated timeline.
	if cfg.Combine != nil {
		for p := range emitter.out {
			// applyCombiner leaves its output key-sorted.
			emitter.out[p] = applyCombiner(ctx, cfg, emitter.out[p])
		}
		var combined int
		for _, p := range emitter.out {
			combined += len(p)
		}
		ctx.Inc(CounterCombineInRecords, int64(outRecs))
		ctx.Inc(CounterCombineOutRecords, int64(combined))
	} else {
		for p := range emitter.out {
			sortByKeyStable(emitter.out[p])
		}
	}
	return emitter.out, ctx.Now(), ctx.counters, ctx.spans, nil
}

// sortByKeyStable stably sorts one partition of map output by key,
// preserving emission order within equal keys.
func sortByKeyStable(out []KeyValue) {
	if len(out) < 2 {
		return
	}
	slices.SortStableFunc(out, func(a, b KeyValue) int {
		return strings.Compare(a.Key, b.Key)
	})
}

// applyCombiner sorts one partition of a map task's output by key,
// groups equal keys, and replaces each group's values with the
// combiner's output, exactly as Hadoop's map-side combine does. Sorting
// and re-emission are charged to the task.
func applyCombiner(ctx *TaskContext, cfg *Config, out []KeyValue) []KeyValue {
	if len(out) < 2 {
		return out
	}
	sortByKeyStable(out)
	ctx.Charge(cfg.Cost.ShuffleSortCost(len(out)))
	combined := make([]KeyValue, 0, len(out))
	var values [][]byte // scratch, reused across groups
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && out[hi].Key == out[lo].Key {
			hi++
		}
		values = values[:0]
		for i := lo; i < hi; i++ {
			values = append(values, out[i].Value)
		}
		for _, v := range cfg.Combine(out[lo].Key, values) {
			ctx.Charge(cfg.Cost.EmitRecord)
			combined = append(combined, KeyValue{Key: out[lo].Key, Value: v})
		}
		lo = hi
	}
	return combined
}

// reduceEmitter stamps each output record with the task-local clock.
type reduceEmitter struct {
	ctx *TaskContext
	out []TimedKV
}

// Emit implements Emitter.
func (e *reduceEmitter) Emit(key string, value []byte) {
	e.out = append(e.out, TimedKV{
		KeyValue: KeyValue{Key: key, Value: value},
		Local:    e.ctx.Now(),
		Task:     e.ctx.Index,
	})
}

func runReduceTask(cfg *Config, index int, in reduceInput) ([]TimedKV, costmodel.Units, Counters, []obs.Span, []quality.BlockObs, error) {
	ctx := &TaskContext{
		Job:       cfg.Name,
		Type:      ReduceTask,
		Index:     index,
		NumReduce: cfg.NumReduceTasks,
		Side:      cfg.Side,
		Cost:      cfg.Cost,
		counters:  Counters{},
		tracing:   cfg.Trace != nil,
		quality:   cfg.Quality != nil,
		lv:        cfg.Live,
	}
	n := in.Len()
	ctx.Charge(cfg.Cost.TaskStartup)
	// Framework shuffle cost: reading and merge-sorting this task's
	// input. (The real sort already happened in Run; here we only
	// account its simulated price.)
	shufStart := ctx.Now()
	ctx.Charge(cfg.Cost.ReadRecord * costmodel.Units(n))
	ctx.Charge(cfg.Cost.ShuffleSortCost(n))
	if ctx.Tracing() {
		ctx.Span("shuffle", fmt.Sprintf("shuffle r%d", index), shufStart, ctx.Now(),
			obs.A("records", n))
	}

	reducer := cfg.NewReducer()
	emitter := &reduceEmitter{ctx: ctx}
	if err := reducer.Setup(ctx); err != nil {
		return nil, 0, nil, nil, nil, fmt.Errorf("mapreduce: %s reduce task %d setup: %w", cfg.Name, index, err)
	}
	// Stream the input and feed the reducer one key group at a time —
	// the group buffer, not the whole partition, bounds the resident
	// records when the input lives on disk.
	var values [][]byte // scratch, reused across groups (see Reducer contract)
	groups := 0
	if n > 0 {
		it, err := in.Iter()
		if err != nil {
			return nil, 0, nil, nil, nil, fmt.Errorf("mapreduce: %s reduce task %d input: %w", cfg.Name, index, err)
		}
		defer it.Close()
		var curKey string
		have := false
		flush := func() error {
			if !have {
				return nil
			}
			if err := reducer.Reduce(ctx, curKey, values, emitter); err != nil {
				return fmt.Errorf("mapreduce: %s reduce task %d key %q: %w", cfg.Name, index, curKey, err)
			}
			groups++
			return nil
		}
		for {
			kv, ok, err := it.Next()
			if err != nil {
				return nil, 0, nil, nil, nil, fmt.Errorf("mapreduce: %s reduce task %d input: %w", cfg.Name, index, err)
			}
			if !ok {
				break
			}
			if !have || kv.Key != curKey {
				if err := flush(); err != nil {
					return nil, 0, nil, nil, nil, err
				}
				curKey, have = kv.Key, true
				values = values[:0]
			}
			values = append(values, kv.Value)
		}
		if err := flush(); err != nil {
			return nil, 0, nil, nil, nil, err
		}
	}
	if err := reducer.Cleanup(ctx, emitter); err != nil {
		return nil, 0, nil, nil, nil, fmt.Errorf("mapreduce: %s reduce task %d cleanup: %w", cfg.Name, index, err)
	}
	ctx.Inc(CounterReduceInRecords, int64(n))
	ctx.Inc(CounterReduceInGroups, int64(groups))
	ctx.Inc(CounterReduceOutRecords, int64(len(emitter.out)))
	return emitter.out, ctx.Now(), ctx.counters, ctx.spans, ctx.qobs, nil
}
