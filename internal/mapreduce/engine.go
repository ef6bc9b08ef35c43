package mapreduce

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/recordio"
)

// Options configures the engine.
type Options struct {
	// TaskOverhead is a simulated per-task startup cost (scheduling,
	// JVM spawn in real Hadoop). Zero disables it. Only the in-process
	// executor applies it; remote workers have real startup costs.
	TaskOverhead time.Duration
	// FailureHook, if set, is consulted before each task attempt; a
	// non-nil return fails the attempt, exercising the jobtracker's
	// retry-on-another-node path. Used by tests for fault injection.
	// In-process executor only.
	FailureHook func(taskID string, attempt int, node string) error
	// SpeculativeSlack enables speculative execution: when slots are
	// idle and a task attempt has been running longer than this, a
	// backup attempt is launched on another node and the first to
	// finish wins (Hadoop's straggler mitigation). Zero disables it.
	SpeculativeSlack time.Duration
	// NodeDelay, if set, returns an artificial execution delay for
	// tasks on the given node, modelling heterogeneous or straggling
	// nodes (used by tests to exercise speculation).
	NodeDelay func(node string) time.Duration
	// Executor, if set, runs task attempts — the RPC backend plugs its
	// remote executor in here. Nil selects the in-process executor,
	// which runs tasks as goroutines on the scheduler's slot workers.
	Executor Executor
	// Obs receives structured lifecycle events (job, phase and task-
	// attempt spans). A nil bus — or a bus with no sinks — costs one
	// nil/empty check per emission site, so jobs run at full speed
	// when nothing is observing.
	Obs *obs.Bus
	// History, if set, persists every successful job's record (report
	// plus per-attempt timeline) — the job-history server role.
	History *obs.History
}

// Engine is the jobtracker's driver side: it turns DFS chunks into map
// tasks, schedules them on tasktracker slots with locality preference
// (scheduler.go), hands each attempt to an Executor (executor.go),
// plans the shuffle, and commits outputs.
type Engine struct {
	cluster *cluster.Cluster
	fs      *dfs.FileSystem
	opts    Options
}

// NewEngine creates an engine over the cluster and file system.
func NewEngine(c *cluster.Cluster, fs *dfs.FileSystem, opts Options) *Engine {
	return &Engine{cluster: c, fs: fs, opts: opts}
}

// FS returns the engine's file system (for writing inputs and reading
// job outputs).
func (e *Engine) FS() *dfs.FileSystem { return e.fs }

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Obs returns the engine's event bus (possibly nil), so algorithm
// drivers can emit pipeline spans onto the same trace.
func (e *Engine) Obs() *obs.Bus { return e.opts.Obs }

// History returns the engine's job-history store (possibly nil).
func (e *Engine) History() *obs.History { return e.opts.History }

// attemptLog collects per-attempt records during scheduling.
type attemptLog struct {
	mu   sync.Mutex
	t0   time.Time
	recs []obs.AttemptRecord
}

func (l *attemptLog) add(rec obs.AttemptRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

// snapshot copies the records under the lock: abandoned speculative
// losers may still append after the job has returned.
func (l *attemptLog) snapshot() []obs.AttemptRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.AttemptRecord(nil), l.recs...)
}

// jobRun is one submitted job's driver-side state, shared by the
// phases Run sequences.
type jobRun struct {
	e           *Engine
	job         *Job
	exec        Executor
	local       *localExecutor // nil when an external executor runs the attempts
	numReducers int
	maxAttempts int
	mapOnly     bool
	splits      []InputSplit
	res         *Result
	alog        *attemptLog
	bus         *obs.Bus
	io0         dfs.IOStatsSnapshot
}

// Run executes one job to completion and returns its result: the map
// phase, then — unless the job is map-only — the shuffle plan and the
// reduce phase, then the commit of the winning attempts' outputs.
func (e *Engine) Run(job *Job) (*Result, error) {
	r, err := e.submit(job)
	if err != nil {
		return nil, err
	}
	results, err := r.mapPhase()
	if err == nil && !r.mapOnly {
		results, err = r.reducePhase(r.shuffle(results))
	}
	if err == nil {
		err = r.commit(results)
	}
	if err != nil {
		return r.fail(err)
	}
	return r.complete(), nil
}

// submit validates and resolves a job, selects its executor and
// computes its splits, then announces it on the bus.
func (e *Engine) submit(job *Job) (*jobRun, error) {
	start := time.Now()
	if err := validate(job); err != nil {
		return nil, err
	}
	r := &jobRun{
		e: e, job: job, numReducers: job.NumReducers, maxAttempts: job.MaxAttempts,
		mapOnly: job.newReducer == nil, alog: &attemptLog{t0: start}, bus: e.opts.Obs,
	}
	if r.numReducers <= 0 {
		r.numReducers = 1
	}
	if r.maxAttempts <= 0 {
		r.maxAttempts = 3
	}
	if existing := e.fs.List(job.OutputPath); len(existing) > 0 {
		return nil, fmt.Errorf("mapreduce: output path %q already exists", job.OutputPath)
	}

	// Select the executor. The external path additionally requires the
	// job to wire — a missing kind registration should fail the job at
	// submission, not every task attempt on the workers.
	r.exec = e.opts.Executor
	if s, ok := r.exec.(jobScoped); ok {
		r.exec = s.ForJob(job)
	}
	if r.exec == nil {
		r.local = &localExecutor{e: e}
		r.exec = r.local
	} else if r.exec.External() {
		if _, err := job.Wire(); err != nil {
			return nil, err
		}
	}

	splits, err := splitsFor(e.fs, job.InputPaths)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %v", job.Name, err)
	}
	r.splits = splits
	r.res = &Result{
		Job:      job.Name,
		Counters: NewCounters(),
		MapTasks: len(splits),
		Start:    start,
	}
	r.io0 = e.fs.IOStats()
	r.bus.Emit(obs.Event{
		Type: obs.JobSubmitted, Job: job.Name, Parent: job.Parent, Time: start,
		Detail: fmt.Sprintf("maps=%d reducers=%d", len(splits), r.numReducers),
	})
	return r, nil
}

// runPhase schedules one phase's task specs between its PhaseStart and
// PhaseEnd events, returning the phase's wall time. The phase is
// closed even on failure: an unpaired PhaseStart reads as a
// still-running phase to the tracker and timeline.
func (r *jobRun) runPhase(phase string, specs []TaskSpec, reports []TaskReport, commit func(i int, tr TaskResult)) (time.Duration, error) {
	job := r.job
	start := time.Now()
	r.bus.Emit(obs.Event{Type: obs.PhaseStart, Job: job.Name, Phase: phase, Time: start})
	err := r.e.schedule(job, phase, r.alog, specs, r.maxAttempts, r.res.Counters, r.exec, commit, reports)
	dur := time.Since(start)
	if err != nil {
		r.bus.Emit(obs.Event{Type: obs.PhaseEnd, Job: job.Name, Phase: phase, Dur: dur, Err: err.Error()})
		return 0, fmt.Errorf("mapreduce: job %s: %v", job.Name, err)
	}
	r.bus.Emit(obs.Event{Type: obs.PhaseEnd, Job: job.Name, Phase: phase, Dur: dur})
	return dur, nil
}

// mapPhase runs one map task per split and returns the winning
// attempts' results in split order. Only the winning attempt's result
// is committed — counters, stats and output alike (speculative losers
// are discarded).
func (r *jobRun) mapPhase() ([]TaskResult, error) {
	job, cs := r.job, r.res.Counters
	specs := make([]TaskSpec, len(r.splits))
	for i, sp := range r.splits {
		specs[i] = TaskSpec{
			Job: job, Phase: "map", TaskID: fmt.Sprintf("map-%04d", i), Index: i,
			MapOnly: r.mapOnly, NumReducers: r.numReducers, Split: sp,
		}
	}
	results := make([]TaskResult, len(specs))
	reports := make([]TaskReport, len(specs))
	wall, err := r.runPhase("map", specs, reports, func(i int, tr TaskResult) {
		st := tr.Stats
		cs.Get(CounterGroupTask, CounterMapInputRecords).Inc(st.MapInputRecords)
		cs.Get(CounterGroupTask, CounterMapOutputRecords).Inc(st.MapOutputRecords)
		if job.newCombiner != nil && !r.mapOnly {
			cs.Get(CounterGroupTask, CounterCombineInput).Inc(st.CombineInputRecords)
			cs.Get(CounterGroupTask, CounterCombineOutput).Inc(st.CombineOutputRecords)
		}
		if !r.mapOnly {
			cs.Get(CounterGroupShuffle, CounterShuffleSpilledRecords).Inc(st.SpilledRecords)
			if st.SpillFiles > 0 {
				cs.Get(CounterGroupShuffle, CounterShuffleSpillFiles).Inc(st.SpillFiles)
				cs.Get(CounterGroupShuffle, CounterShuffleSpillBytes).Inc(st.SpillBytes)
			}
		}
		mergeUserCounters(cs, tr.UserCounters)
		results[i] = tr
		reports[i].Records = tr.Records
	})
	if err != nil {
		return nil, err
	}
	r.res.MapWall = wall
	r.res.Tasks = reports
	return results, nil
}

// shuffle plans the only communication step (§III) and returns the
// sorted runs feeding each reduce partition. Sort-based: every map
// task committed pre-sorted runs per reduce partition, so the shuffle
// is a k-way merge per partition. Partitions whose runs all sit in
// memory are merged eagerly, in parallel bounded by the cluster's task
// slots; partitions with any file-backed run defer their merge to the
// reduce attempts, which stream it instead of materialising it. On an
// external executor every non-empty partition is file-backed.
func (r *jobRun) shuffle(maps []TaskResult) [][]run {
	job, n := r.job, r.numReducers
	start := time.Now()
	r.res.ReduceTasks = n
	// Collect every map task's runs per partition, in (map task, spill
	// sequence) order — the order the merges' tie-break relies on for
	// stability. Map results are released as the shuffle takes
	// ownership, so outputs and merged partitions are never both
	// retained (peak shuffle memory used to be ~2× intermediate data).
	inputs := make([][]run, n)
	var totalRuns int64
	for i := range maps {
		for p, kvs := range maps[i].localMap {
			if len(kvs) > 0 {
				inputs[p] = append(inputs[p], run{mem: kvs})
				totalRuns++
			}
		}
		for p, rds := range maps[i].MapRuns {
			for _, rd := range rds {
				inputs[p] = append(inputs[p], run{file: rd})
				totalRuns++
			}
		}
		maps[i] = TaskResult{}
	}
	r.bus.Emit(obs.Event{
		Type: obs.PhaseStart, Job: job.Name, Phase: "shuffle", Time: start,
		Detail: fmt.Sprintf("partitions=%d runs=%d", n, totalRuns),
	})
	runCounts := make([]int64, n)
	recCounts := make([]int64, n)
	partBytes := make([]int64, n)
	partDur := make([]time.Duration, n)
	slots := r.e.cluster.TotalSlots()
	if slots < 1 {
		slots = 1
	}
	sem := make(chan struct{}, slots)
	var mergeWG sync.WaitGroup
	for p := 0; p < n; p++ {
		runCounts[p] = int64(len(inputs[p]))
		if !inMemory(inputs[p]) {
			for _, rn := range inputs[p] {
				recCounts[p] += rn.records()
				partBytes[p] += rn.bytes()
			}
			continue
		}
		mergeWG.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer mergeWG.Done()
			defer func() { <-sem }()
			mergeStart := time.Now()
			merged := run{mem: mergeRuns(inputs[p], job.keyCompare)}
			// Release the map runs: merged now holds (or, for a lone
			// run, aliases) the partition's data.
			inputs[p] = nil
			if len(merged.mem) > 0 {
				inputs[p] = []run{merged}
			}
			recCounts[p] = merged.records()
			partBytes[p] = merged.bytes()
			partDur[p] = time.Since(mergeStart)
		}(p)
	}
	mergeWG.Wait()
	var shuffleBytes int64
	for _, b := range partBytes {
		shuffleBytes += b
	}
	r.res.Counters.Get(CounterGroupShuffle, CounterShuffleBytes).Inc(shuffleBytes)
	r.res.Counters.Get(CounterGroupShuffle, CounterShuffleRunsMerged).Inc(totalRuns)
	r.res.ShuffleWall = time.Since(start)
	var parts []obs.PartStat
	if r.bus.Active() {
		parts = make([]obs.PartStat, n)
		for p := 0; p < n; p++ {
			parts[p] = obs.PartStat{
				Part:    p,
				Runs:    runCounts[p],
				Records: recCounts[p],
				Bytes:   partBytes[p],
				DurUs:   partDur[p].Microseconds(),
			}
		}
	}
	r.bus.Emit(obs.Event{
		Type: obs.PhaseEnd, Job: job.Name, Phase: "shuffle", Dur: r.res.ShuffleWall,
		Value: shuffleBytes, Detail: shuffleDetail(runCounts, recCounts, partBytes),
		Parts: parts,
	})
	return inputs
}

// inMemory reports whether every run is held in memory.
func inMemory(runs []run) bool {
	for _, rn := range runs {
		if rn.file.Path != "" {
			return false
		}
	}
	return true
}

// reducePhase runs one reduce task per partition over the shuffle's
// runs and returns the winning attempts' results in partition order.
func (r *jobRun) reducePhase(inputs [][]run) ([]TaskResult, error) {
	job, cs := r.job, r.res.Counters
	specs := make([]TaskSpec, r.numReducers) // no locality: reducers read from all mappers
	for p := range specs {
		specs[p] = TaskSpec{
			Job: job, Phase: "reduce", TaskID: fmt.Sprintf("reduce-%04d", p), Index: p,
			NumReducers: r.numReducers, Partition: p,
		}
	}
	if r.local != nil {
		r.local.inputs = inputs
	} else {
		// Out of process every run is file-backed and travels in the spec.
		for p, runs := range inputs {
			for _, rn := range runs {
				specs[p].Runs = append(specs[p].Runs, rn.file)
			}
		}
	}
	results := make([]TaskResult, len(specs))
	reports := make([]TaskReport, len(specs))
	wall, err := r.runPhase("reduce", specs, reports, func(p int, tr TaskResult) {
		st := tr.Stats
		cs.Get(CounterGroupTask, CounterReduceInputRecords).Inc(st.ReduceInputRecords)
		cs.Get(CounterGroupTask, CounterReduceOutput).Inc(st.ReduceOutputRecords)
		cs.Get(CounterGroupTask, CounterReduceInputGroups).Inc(st.ReduceInputGroups)
		mergeUserCounters(cs, tr.UserCounters)
		results[p] = tr
		reports[p].Records = tr.Records
	})
	if err != nil {
		return nil, err
	}
	r.res.ReduceWall = wall
	r.res.Tasks = append(r.res.Tasks, reports...)
	return results, nil
}

// commit renames each winning attempt's temp output into its part file
// (part-m-NNNNN for a map-only job, part-r-NNNNN otherwise), in task
// order.
func (r *jobRun) commit(results []TaskResult) error {
	kind := 'r'
	if r.mapOnly {
		kind = 'm'
	}
	for i, tr := range results {
		name := fmt.Sprintf("%s/part-%c-%05d", r.job.OutputPath, kind, i)
		if err := r.e.fs.Rename(tr.OutFile, name); err != nil {
			return err
		}
		r.res.OutputFiles = append(r.res.OutputFiles, name)
	}
	return nil
}

// cleanup removes the job's uncommitted task temp outputs and, when
// it may have spilled, its shuffle run files. Cleanup is best-effort —
// a stuck delete must not change the job's outcome — but failures are
// counted, never dropped. Background speculative losers may still be
// streaming a spill file here; their read error is discarded with the
// rest of the losing attempt.
func (r *jobRun) cleanup() {
	cs := r.res.Counters
	if derr := r.e.fs.DeleteDir(tmpDir(r.job.Name)); derr != nil {
		cs.Get(CounterGroupShuffle, CounterShuffleSpillCleanupErrors).Inc(1)
	}
	if r.mapOnly || (r.job.MaxShuffleBytes <= 0 && !r.exec.External()) {
		return
	}
	if derr := r.e.fs.DeleteDir(spillDir(r.job)); derr != nil {
		cs.Get(CounterGroupShuffle, CounterShuffleSpillCleanupErrors).Inc(1)
	}
}

// fail reports the job's failure on the bus before returning it. Any
// part files already committed are removed first — the output-exists
// check at submission guarantees everything under OutputPath was
// written by this job, and leaving partial output behind would make a
// rerun of the same job fail on that very check.
func (r *jobRun) fail(err error) (*Result, error) {
	job := r.job
	r.cleanup()
	if derr := r.e.fs.DeleteDir(job.OutputPath); derr != nil {
		// A rerun would now trip the output-exists check; make the
		// stuck cleanup part of the reported failure.
		err = fmt.Errorf("%v (cleaning partial output: %v)", err, derr)
	}
	r.bus.Emit(obs.Event{
		Type: obs.JobFinished, Job: job.Name, Parent: job.Parent,
		Dur: time.Since(r.res.Start), Err: err.Error(),
	})
	return nil, err
}

// complete finalises a successful result: attempt records, the job's
// share of DFS I/O, the finish event, and the history record.
func (r *jobRun) complete() *Result {
	res := r.res
	r.cleanup()
	res.Wall = time.Since(res.Start)
	io1 := r.e.fs.IOStats()
	res.Counters.Get(CounterGroupDFS, CounterDFSBytesRead).Inc(io1.BytesRead - r.io0.BytesRead)
	res.Counters.Get(CounterGroupDFS, CounterDFSBytesWritten).Inc(io1.BytesWritten - r.io0.BytesWritten)
	res.Counters.Get(CounterGroupDFS, CounterDFSChunksRead).Inc(io1.ChunksRead - r.io0.ChunksRead)
	res.Attempts = r.alog.snapshot()
	r.bus.Emit(obs.Event{
		Type: obs.JobFinished, Job: r.job.Name, Parent: r.job.Parent, Dur: res.Wall,
	})
	if h := r.e.opts.History; h != nil {
		// History is diagnostics: a full store must not fail the job,
		// but a failed store must not vanish either.
		if _, herr := h.Save(res.HistoryRecord()); herr != nil {
			res.Counters.Get(CounterGroupEngine, CounterHistorySaveErrors).Inc(1)
		}
	}
	return res
}

// shuffleDetail renders the per-partition merge summary carried on the
// shuffle PhaseEnd event: runs merged, records and bytes per reduce
// partition, capped so huge reducer counts stay readable.
func shuffleDetail(runs, records, bytes []int64) string {
	const maxParts = 16
	var sb strings.Builder
	for p := range records {
		if p == maxParts {
			fmt.Fprintf(&sb, " …(+%d partitions)", len(records)-maxParts)
			break
		}
		if p > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "p%d:runs=%d,records=%d,bytes=%d", p, runs[p], records[p], bytes[p])
	}
	return sb.String()
}

// encodePartFile renders records as a recordio record file, the
// format of every part file. It is shared by both backends' task
// attempts, which is what makes remote part files byte-identical to
// in-process ones.
func encodePartFile(kvs []KV) []byte {
	w := recordio.NewWriter()
	for _, kv := range kvs {
		w.Add(kv.Key, kv.Value)
	}
	return w.Bytes()
}

// ReadOutput reads back all part files of a completed job's output
// directory as KV records, in part-file order.
func (e *Engine) ReadOutput(outputPath string) ([]KV, error) {
	files := e.fs.List(outputPath)
	if len(files) == 0 {
		return nil, fmt.Errorf("mapreduce: no output files under %q", outputPath)
	}
	var out []KV
	for _, f := range files {
		data, err := e.fs.ReadAll(f)
		if err != nil {
			return nil, err
		}
		err = recordio.ScanAll(data, func(k, v string) error {
			out = append(out, KV{Key: k, Value: v})
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("mapreduce: %s: %v", f, err)
		}
	}
	return out, nil
}

// RunPipeline runs jobs in sequence, failing fast; the caller wires
// each job's OutputPath into the next job's InputPaths (as DJ-Cluster's
// preprocessing does: "the output of the first job constitutes the
// input of the second one").
func (e *Engine) RunPipeline(jobs ...*Job) ([]*Result, error) {
	results := make([]*Result, 0, len(jobs))
	for _, j := range jobs {
		r, err := e.Run(j)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

func validate(job *Job) error {
	if job.Name == "" {
		return fmt.Errorf("mapreduce: job needs a name")
	}
	if job.newMapper == nil {
		return fmt.Errorf("mapreduce: job %s: no mapper (build jobs with TypedJob.Build)", job.Name)
	}
	if len(job.InputPaths) == 0 {
		return fmt.Errorf("mapreduce: job %s: no input paths", job.Name)
	}
	if job.OutputPath == "" {
		return fmt.Errorf("mapreduce: job %s: no output path", job.Name)
	}
	if job.newCombiner != nil && job.newReducer == nil {
		return fmt.Errorf("mapreduce: job %s: combiner without reducer", job.Name)
	}
	return nil
}
