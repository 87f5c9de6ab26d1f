package mapreduce

// Remote (multi-process) execution of one job. Every process — master
// and workers — runs the same deterministic driver with the same
// resolution-affecting configuration, so each can reconstruct the
// job's Config (mappers, reducers, side data) locally: only task
// identity and result metadata cross the wire, never closures or
// input payloads. The shared-filesystem run files of the PR 6 spill
// layer are the data plane: a map task writes one pre-sorted run file
// per partition, a shuffle task k-way merges them into one merged run
// per partition, and a reduce task streams that merged run — the
// master hands workers run-file paths (implicitly, via task identity
// and a shared data dir), not payloads. Reduce output, counters,
// spans, and quality observations travel back inline over RPC: they
// are exactly the per-task state phaseOutputs needs.
//
// Determinism: the master builds the job's task graph with the same
// runJobGraph the local engine uses — its task bodies just dispatch
// over RPC instead of calling the task functions.
// Committed results are byte-identical to local execution because the
// task bodies are the same deterministic functions, so everything
// derived in Run's finalize half (schedule, Result, spans, metrics,
// quality) is transport-independent. Workers fill the same
// phaseOutputs from the master's end-of-job broadcast, which keeps
// every process's driver loop (job-2 schedule generation feeds on
// job-1's Result) in lockstep.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"proger/internal/costmodel"
	"proger/internal/extsort"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// Remote phase names, the wire form of a leased task's phase.
const (
	RemotePhaseMap     = "map"
	RemotePhaseShuffle = "shuffle"
	RemotePhaseReduce  = "reduce"
)

// RemoteJobSpec describes one job as a process derived it from its own
// configuration. The master publishes its spec; workers cross-check
// theirs against it before executing leases — a mismatch means the
// fleet's configurations have diverged and lockstep replay is unsound.
type RemoteJobSpec struct {
	Name           string
	NumMapTasks    int
	NumReduceTasks int
	// Tracing and Quality are the master's sink flags: workers collect
	// spans and block observations whenever the master (or they
	// themselves) need them, since a worker cannot know locally whether
	// the master runs with -trace.
	Tracing bool
	Quality bool
}

// RemoteTaskResult is one completed task's wire-form outcome — the
// per-task slice of phaseOutputs that must cross processes. Bulk data
// stays on the shared filesystem: a map task reports only per-partition
// record counts (the runs themselves are files), a shuffle task its
// merged record count. Reduce output is the job's actual product and
// returns inline.
//
// It holds deterministic task output only: the executing worker's
// identity travels beside it (RemoteJob.RunTask, RemoteJobResults), so
// comparing two attempts' results can never see which worker ran them.
type RemoteTaskResult struct {
	Cost     costmodel.Units
	Counters Counters
	Spans    []obs.Span
	// PartLens is a map task's record count per partition.
	PartLens []int
	// Len is a shuffle task's merged record count.
	Len int
	// Out and Qobs are a reduce task's output records and quality
	// observations.
	Out  []TimedKV
	Qobs []quality.BlockObs
}

// RemoteJobResults is the master's end-of-job broadcast: every task's
// committed result, indexed by task. Workers fill phaseOutputs from it
// and proceed exactly as if they had executed the job locally.
type RemoteJobResults struct {
	Map     []RemoteTaskResult
	Shuffle []RemoteTaskResult
	Reduce  []RemoteTaskResult
	// MapWorkers, ShuffleWorkers, and ReduceWorkers attribute each
	// committed task to the worker that executed it, so every process's
	// live task table shows who ran what. Observability only.
	MapWorkers, ShuffleWorkers, ReduceWorkers []int
}

// remoteInput is the master's stand-in reduceInput for a partition
// merged on some worker: the record count is known (the schedule and
// trace need it), the records themselves live in the shared run file
// and are only ever streamed worker-side.
type remoteInput struct {
	n int
}

func (r remoteInput) Len() int { return r.n }
func (r remoteInput) Iter() (kvIter, error) {
	return nil, fmt.Errorf("mapreduce: remote reduce input holds no local records")
}

// runFileInput is the worker-side reduceInput streaming a merged
// shuffle run file. The file is owned by the master's job cleanup; each
// Iter opens an independent handle. c, when non-nil, counts bytes read
// off the file.
type runFileInput struct {
	path string
	n    int
	c    *obs.Counter
}

func (f runFileInput) Len() int { return f.n }

func (f runFileInput) Iter() (kvIter, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: open shuffle run: %w", err)
	}
	return &runFileIter{f: fh, rr: extsort.NewRunReader(countingReader{fh, f.c})}, nil
}

type runFileIter struct {
	f  *os.File
	rr *extsort.RunReader
}

func (it *runFileIter) Next() (KeyValue, bool, error) {
	_, key, val, err := it.rr.Next()
	if err == io.EOF {
		return KeyValue{}, false, nil
	}
	if err != nil {
		return KeyValue{}, false, fmt.Errorf("mapreduce: read shuffle run: %w", err)
	}
	return KeyValue{Key: key, Value: val}, true, nil
}

func (it *runFileIter) Close() error { return it.f.Close() }

// Run-file naming inside one job's shared directory.
func remoteJobDirName(seq int) string { return fmt.Sprintf("job%d", seq) }
func mapRunName(m, r int) string      { return fmt.Sprintf("m%d.p%d.run", m, r) }
func shuffleRunName(r int) string     { return fmt.Sprintf("shuf%d.run", r) }
func remoteJobDir(dataDir string, seq int) string {
	return filepath.Join(dataDir, remoteJobDirName(seq))
}

// RemoteJobDir returns job seq's shared run-file directory under
// dataDir. Exported so a transport can clean a finished job's runs.
func RemoteJobDir(dataDir string, seq int) string { return remoteJobDir(dataDir, seq) }

// RemoteRunner executes leased task bodies worker-side: the same
// deterministic runMapTask/runReduceTask functions the local engine
// calls, against the job Config this process reconstructed locally,
// with run files on the shared data dir as input/output. The transport
// calls Configure once placement is known, then RunTask per lease.
type RemoteRunner struct {
	cfg    *Config
	splits [][]KeyValue
	lj     *live.Job

	dataDir string
	seq     int
	execCfg *Config

	// workerID is this process's master-assigned identity (0 until
	// Configure), fed to the live task table rows this runner executes.
	// cRead/cWrite count shared-directory run-file bytes this process
	// streams — registry-only fleet telemetry (nil without metrics).
	workerID      int
	cRead, cWrite *obs.Counter

	// done tracks tasks this process executed via leases, so the
	// end-of-job live back-fill (publishRemaining) doesn't double-report
	// their transitions on the local snapshot hub.
	mu   sync.Mutex
	done map[remoteTaskKey]struct{}
}

type remoteTaskKey struct {
	phase string
	task  int
}

func newRemoteRunner(cfg *Config, splits [][]KeyValue, lj *live.Job) *RemoteRunner {
	return &RemoteRunner{cfg: cfg, splits: splits, lj: lj,
		cRead:  cfg.Metrics.Counter(CounterDistRunBytesRead),
		cWrite: cfg.Metrics.Counter(CounterDistRunBytesWritten),
		done:   map[remoteTaskKey]struct{}{}}
}

// Configure binds the runner to its placement: the shared run-file
// directory, the job's sequence number in the chain, this process's
// master-assigned worker identity, and the fleet's sink flags.
// tracing/quality are ORed with the local config's own sinks — a
// worker collects spans/qobs whenever anyone needs them — by
// installing throwaway sinks on a copy of the config (the task
// functions key collection off sink non-nilness; the copies' sinks are
// never exported, results ship back inside RemoteTaskResult instead).
func (rr *RemoteRunner) Configure(dataDir string, seq, workerID int, tracing, qual bool) {
	rr.dataDir = dataDir
	rr.seq = seq
	rr.workerID = workerID
	c := *rr.cfg
	if tracing && c.Trace == nil {
		c.Trace = obs.New()
	}
	if qual && c.Quality == nil {
		c.Quality = quality.NewRecorder()
	}
	rr.execCfg = &c
}

func (rr *RemoteRunner) jobDir() string { return remoteJobDir(rr.dataDir, rr.seq) }

func (rr *RemoteRunner) markDone(phase string, task int) {
	rr.mu.Lock()
	rr.done[remoteTaskKey{phase, task}] = struct{}{}
	rr.mu.Unlock()
}

// publishRemaining back-fills the local live snapshot hub with the
// tasks other workers executed, from the master's broadcast — worker
// attribution included — so a worker's status server converges to the
// complete job view.
func (rr *RemoteRunner) publishRemaining(p live.Phase, phase string, task int, cost costmodel.Units, records, worker int) {
	rr.mu.Lock()
	_, ran := rr.done[remoteTaskKey{phase, task}]
	rr.mu.Unlock()
	if ran {
		return
	}
	rr.lj.TaskStart(p, task)
	rr.lj.TaskDone(p, task, float64(cost), records)
	rr.lj.TaskWorker(p, task, worker)
}

// RunTask executes one leased task body and returns its wire-form
// result. Duplicate executions (re-leases after a lost worker, or the
// master's speculation pass) are safe: task bodies are deterministic
// and run files are written atomically with first-write-wins.
func (rr *RemoteRunner) RunTask(phase string, task, inputLen int) (*RemoteTaskResult, error) {
	if rr.execCfg == nil {
		return nil, fmt.Errorf("mapreduce: remote runner not configured")
	}
	switch phase {
	case RemotePhaseMap:
		return rr.runMap(task)
	case RemotePhaseShuffle:
		return rr.runShuffle(task)
	case RemotePhaseReduce:
		return rr.runReduce(task, inputLen)
	}
	return nil, fmt.Errorf("mapreduce: unknown remote phase %q", phase)
}

func (rr *RemoteRunner) runMap(m int) (*RemoteTaskResult, error) {
	if m < 0 || m >= len(rr.splits) {
		return nil, fmt.Errorf("mapreduce: map task %d outside %d splits", m, len(rr.splits))
	}
	rr.lj.TaskStart(live.PhaseMap, m)
	out, cost, counters, spans, err := runMapTask(rr.execCfg, m, rr.splits[m])
	if err != nil {
		rr.lj.TaskFailed(live.PhaseMap, m, err)
		return nil, err
	}
	res := &RemoteTaskResult{Cost: cost, Counters: counters, Spans: spans, PartLens: make([]int, len(out))}
	for r, part := range out {
		res.PartLens[r] = len(part)
		if err := writeRunFileAtomic(rr.jobDir(), mapRunName(m, r), uint64(m), part, rr.cWrite); err != nil {
			rr.lj.TaskFailed(live.PhaseMap, m, err)
			return nil, err
		}
	}
	rr.lj.TaskDone(live.PhaseMap, m, float64(cost), len(rr.splits[m]))
	rr.lj.TaskWorker(live.PhaseMap, m, rr.workerID)
	rr.markDone(RemotePhaseMap, m)
	return res, nil
}

// runShuffle k-way merges partition r's map run files by (key, map
// index) — the identical stable order every local storage mode yields —
// streaming straight into the partition's merged run file.
func (rr *RemoteRunner) runShuffle(r int) (*RemoteTaskResult, error) {
	rr.lj.TaskStart(live.PhaseShuffle, r)
	n, err := rr.mergePartition(r)
	if err != nil {
		rr.lj.TaskFailed(live.PhaseShuffle, r, err)
		return nil, err
	}
	cost := rr.execCfg.Cost.ShuffleSortCost(n)
	rr.lj.TaskDone(live.PhaseShuffle, r, float64(cost), n)
	rr.lj.TaskWorker(live.PhaseShuffle, r, rr.workerID)
	rr.markDone(RemotePhaseShuffle, r)
	return &RemoteTaskResult{Cost: cost, Len: n}, nil
}

func (rr *RemoteRunner) mergePartition(r int) (n int, err error) {
	dir := rr.jobDir()
	final := filepath.Join(dir, shuffleRunName(r))
	M := rr.execCfg.NumMapTasks
	type src struct {
		f  *os.File
		rr *extsort.RunReader
	}
	srcs := make([]*src, 0, M)
	defer func() {
		for _, s := range srcs {
			s.f.Close()
		}
	}()
	var readErr error
	pulls := make([]func() (prioKV, bool), 0, M)
	total := 0
	for m := 0; m < M; m++ {
		f, err := os.Open(filepath.Join(dir, mapRunName(m, r)))
		if err != nil {
			return 0, fmt.Errorf("mapreduce: shuffle %d: %w", r, err)
		}
		s := &src{f: f, rr: extsort.NewRunReader(countingReader{f, rr.cRead})}
		srcs = append(srcs, s)
		pulls = append(pulls, func() (prioKV, bool) {
			seq, key, val, err := s.rr.Next()
			if err == io.EOF {
				return prioKV{}, false
			}
			if err != nil {
				if readErr == nil {
					readErr = err
				}
				return prioKV{}, false
			}
			return prioKV{prio: seq, kv: KeyValue{Key: key, Value: val}}, true
		})
	}
	merger := extsort.NewMerger(pulls, prioKVCmp)
	// First-write-wins: if a previous lease of this task already merged
	// the partition, count its records instead of rewriting identical
	// bytes over a file a reduce task may be streaming.
	if _, statErr := os.Stat(final); statErr == nil {
		return countRunRecords(final, rr.cRead)
	}
	tmp, err := os.CreateTemp(dir, shuffleRunName(r)+".tmp-")
	if err != nil {
		return 0, fmt.Errorf("mapreduce: shuffle %d: %w", r, err)
	}
	fail := func(err error) (int, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("mapreduce: shuffle %d: %w", r, err)
	}
	rw := extsort.NewRunWriter(countingWriter{tmp, rr.cWrite})
	for {
		rec, ok := merger.Next()
		if !ok {
			break
		}
		if err := rw.WriteRecord(rec.prio, rec.kv.Key, rec.kv.Value); err != nil {
			return fail(err)
		}
		total++
	}
	if readErr != nil {
		return fail(readErr)
	}
	if err := rw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("mapreduce: shuffle %d: %w", r, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("mapreduce: shuffle %d: %w", r, err)
	}
	return total, nil
}

func (rr *RemoteRunner) runReduce(i, inputLen int) (*RemoteTaskResult, error) {
	rr.lj.TaskStart(live.PhaseReduce, i)
	in := runFileInput{path: filepath.Join(rr.jobDir(), shuffleRunName(i)), n: inputLen, c: rr.cRead}
	out, cost, counters, spans, qobs, err := runReduceTask(rr.execCfg, i, in)
	if err != nil {
		rr.lj.TaskFailed(live.PhaseReduce, i, err)
		return nil, err
	}
	rr.lj.TaskDone(live.PhaseReduce, i, float64(cost), inputLen)
	rr.lj.TaskWorker(live.PhaseReduce, i, rr.workerID)
	rr.markDone(RemotePhaseReduce, i)
	return &RemoteTaskResult{Cost: cost, Counters: counters, Spans: spans, Out: out, Qobs: qobs}, nil
}

// writeRunFileAtomic writes one pre-sorted run to dir/name with
// first-write-wins semantics: temp file + rename, and an existing file
// is left untouched (any two executions of the same deterministic task
// produce identical bytes, so whichever landed first is the truth).
// c, when non-nil, counts the bytes written.
func writeRunFileAtomic(dir, name string, prio uint64, kvs []KeyValue, c *obs.Counter) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("mapreduce: run dir: %w", err)
	}
	final := filepath.Join(dir, name)
	if _, err := os.Stat(final); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-")
	if err != nil {
		return fmt.Errorf("mapreduce: write run %s: %w", name, err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("mapreduce: write run %s: %w", name, err)
	}
	rw := extsort.NewRunWriter(countingWriter{tmp, c})
	for _, kv := range kvs {
		if err := rw.WriteRecord(prio, kv.Key, kv.Value); err != nil {
			return fail(err)
		}
	}
	if err := rw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("mapreduce: write run %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("mapreduce: write run %s: %w", name, err)
	}
	return nil
}

func countRunRecords(path string, c *obs.Counter) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rr := extsort.NewRunReader(countingReader{f, c})
	n := 0
	for {
		_, _, _, err := rr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		n++
	}
}

// countingReader/countingWriter feed a run-file byte counter from the
// raw stream. Nil counters no-op, so the wrappers are always safe.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

// runRemoteJob executes one job over a remote transport, filling po
// byte-identically to the local engine.
func runRemoteJob(cfg *Config, rt RemoteTransport, fr *faultRuntime, lj *live.Job, workers int, splits [][]KeyValue, po *phaseOutputs) error {
	spec := RemoteJobSpec{
		Name:           cfg.Name,
		NumMapTasks:    cfg.NumMapTasks,
		NumReduceTasks: cfg.NumReduceTasks,
		Tracing:        cfg.Trace != nil,
		Quality:        cfg.Quality != nil,
	}
	runner := newRemoteRunner(cfg, splits, lj)
	job, err := rt.BeginJob(spec, runner)
	if err != nil {
		return err
	}
	if job.Master() {
		return runRemoteMaster(cfg, fr, lj, workers, splits, po, job)
	}
	return runRemoteWorker(cfg, splits, po, job, runner)
}

// runRemoteMaster runs the job's task graph with RPC-dispatching task
// bodies, then broadcasts the committed results (or the terminal
// error) so the worker fleet's lockstep drivers can proceed or abort.
func runRemoteMaster(cfg *Config, fr *faultRuntime, lj *live.Job, workers int, splits [][]KeyValue, po *phaseOutputs, rjob RemoteJob) error {
	// Lost leases (worker died mid-task) re-dispatch below the attempt
	// runtime: host chaos stays off the simulated timeline.
	lost := lostRetryBudget(cfg)
	dispatch := func(phase string, task, inputLen int) (*RemoteTaskResult, int, error) {
		return retryLost(lost, func() (*RemoteTaskResult, int, error) {
			return rjob.RunTask(phase, task, inputLen)
		})
	}
	mExec := observed(lj, live.PhaseMap, po.mapWall, func(m int) (mapTaskResult, costmodel.Units, int, error) {
		res, worker, err := dispatch(RemotePhaseMap, m, len(splits[m]))
		if err != nil {
			return mapTaskResult{}, 0, 0, err
		}
		lj.TaskWorker(live.PhaseMap, m, worker)
		return mapTaskResult{partLens: res.PartLens, counters: res.Counters, spans: res.Spans, worker: worker},
			res.Cost, len(splits[m]), nil
	})
	sExec := observed(lj, live.PhaseShuffle, po.shufWall, func(r int) (shuffleTaskResult, costmodel.Units, int, error) {
		n := 0
		for _, mr := range po.mapRes {
			n += mr.partLens[r]
		}
		res, worker, err := dispatch(RemotePhaseShuffle, r, n)
		if err != nil {
			return shuffleTaskResult{}, 0, 0, err
		}
		if res.Len != n {
			return shuffleTaskResult{}, 0, 0, fmt.Errorf("mapreduce: %s shuffle %d merged %d records, map tasks produced %d",
				cfg.Name, r, res.Len, n)
		}
		lj.TaskWorker(live.PhaseShuffle, r, worker)
		return shuffleTaskResult{in: remoteInput{n: n}, worker: worker}, cfg.Cost.ShuffleSortCost(n), n, nil
	})
	rExec := observed(lj, live.PhaseReduce, po.reduceWall, func(i int) (reduceTaskResult, costmodel.Units, int, error) {
		n := po.shufRes[i].in.Len()
		res, worker, err := dispatch(RemotePhaseReduce, i, n)
		if err != nil {
			return reduceTaskResult{}, 0, 0, err
		}
		lj.TaskWorker(live.PhaseReduce, i, worker)
		return reduceTaskResult{out: res.Out, counters: res.Counters, spans: res.Spans, qobs: res.Qobs, worker: worker},
			res.Cost, n, nil
	})

	err := runJobGraph(cfg, fr, workers, po, mExec, sExec, rExec)
	var results *RemoteJobResults
	if err == nil {
		results = po.remoteResults()
	}
	if ferr := rjob.Finish(results, err); err == nil {
		err = ferr
	}
	return err
}

// remoteResults packs the committed task outputs into the end-of-job
// broadcast; runRemoteWorker unpacks it on the worker side.
func (po *phaseOutputs) remoteResults() *RemoteJobResults {
	jr := &RemoteJobResults{
		Map:            make([]RemoteTaskResult, len(po.mapRes)),
		Shuffle:        make([]RemoteTaskResult, len(po.shufRes)),
		Reduce:         make([]RemoteTaskResult, len(po.reduceRes)),
		MapWorkers:     make([]int, len(po.mapRes)),
		ShuffleWorkers: make([]int, len(po.shufRes)),
		ReduceWorkers:  make([]int, len(po.reduceRes)),
	}
	for m, r := range po.mapRes {
		jr.Map[m] = RemoteTaskResult{Cost: po.mapCosts[m], Counters: r.counters, Spans: r.spans, PartLens: r.partLens}
		jr.MapWorkers[m] = r.worker
	}
	for i, r := range po.shufRes {
		jr.Shuffle[i] = RemoteTaskResult{Cost: po.shufCosts[i], Len: r.in.Len()}
		jr.ShuffleWorkers[i] = r.worker
	}
	for i, r := range po.reduceRes {
		jr.Reduce[i] = RemoteTaskResult{Cost: po.reduceCosts[i], Counters: r.counters, Spans: r.spans, Out: r.out, Qobs: r.qobs}
		jr.ReduceWorkers[i] = r.worker
	}
	return jr
}

// runRemoteWorker is the follower side: leases execute concurrently
// through the transport's pump loops (which call RemoteRunner.RunTask
// directly); here the driver just waits for the master's broadcast and
// fills po from it, so the rest of Run — and the next job's schedule
// generation — proceeds identically to the master's.
func runRemoteWorker(cfg *Config, splits [][]KeyValue, po *phaseOutputs, rjob RemoteJob, runner *RemoteRunner) error {
	jr, err := rjob.Wait()
	if err != nil {
		return err
	}
	M, R := cfg.NumMapTasks, cfg.NumReduceTasks
	if len(jr.Map) != M || len(jr.Shuffle) != R || len(jr.Reduce) != R ||
		len(jr.MapWorkers) != M || len(jr.ShuffleWorkers) != R || len(jr.ReduceWorkers) != R {
		return fmt.Errorf("mapreduce: %s: master broadcast %d/%d/%d task results, this process expects %d/%d/%d — fleet configs diverged",
			cfg.Name, len(jr.Map), len(jr.Shuffle), len(jr.Reduce), M, R, R)
	}
	for m, res := range jr.Map {
		po.mapRes[m] = mapTaskResult{partLens: res.PartLens, counters: res.Counters, spans: res.Spans, worker: jr.MapWorkers[m]}
		po.mapCosts[m] = res.Cost
		runner.publishRemaining(live.PhaseMap, RemotePhaseMap, m, res.Cost, len(splits[m]), jr.MapWorkers[m])
	}
	for r, res := range jr.Shuffle {
		po.shufRes[r] = shuffleTaskResult{in: remoteInput{n: res.Len}, worker: jr.ShuffleWorkers[r]}
		po.shufCosts[r] = res.Cost
		runner.publishRemaining(live.PhaseShuffle, RemotePhaseShuffle, r, res.Cost, res.Len, jr.ShuffleWorkers[r])
	}
	for i, res := range jr.Reduce {
		po.reduceRes[i] = reduceTaskResult{out: res.Out, counters: res.Counters, spans: res.Spans, qobs: res.Qobs, worker: jr.ReduceWorkers[i]}
		po.reduceCosts[i] = res.Cost
		runner.publishRemaining(live.PhaseReduce, RemotePhaseReduce, i, res.Cost, jr.Shuffle[i].Len, jr.ReduceWorkers[i])
	}
	return nil
}
