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

// mapOutput is one map task's partitioned intermediate output: per
// partition either an in-memory sorted run, or — when the task spilled
// under Job.MaxShuffleBytes, or ran on an external executor — a list
// of file-backed sorted runs.
type mapOutput struct {
	parts    [][]KV       // indexed by reducer partition; nil entries when spilled
	fileRuns [][]spillRun // per-partition spill runs, nil unless the task spilled
}

// remoteMapOutput converts a remote map task's run descriptors into
// the engine's shuffle-planning form. Every partition of a remote task
// is file-backed (or empty).
func remoteMapOutput(runs [][]RunDesc, numReducers int) *mapOutput {
	out := &mapOutput{parts: make([][]KV, numReducers)}
	var fr [][]spillRun
	for p, rds := range runs {
		if len(rds) == 0 {
			continue
		}
		if fr == nil {
			fr = make([][]spillRun, numReducers)
		}
		for _, rd := range rds {
			fr[p] = append(fr[p], spillRun{path: rd.Path, records: rd.Records, bytes: rd.Bytes})
		}
	}
	out.fileRuns = fr
	return out
}

// shuffleBudgetFor resolves a job's per-task spill budget: the manual
// MaxShuffleBytes knob wins; otherwise MemoryTargetBytes is divided by
// the cluster's concurrent task slots (the worst case of every slot's
// map task buffering at once); otherwise 0, the all-in-memory shuffle.
func (e *Engine) shuffleBudgetFor(job *Job) int64 {
	if job.MaxShuffleBytes > 0 {
		return job.MaxShuffleBytes
	}
	if job.MemoryTargetBytes <= 0 {
		return 0
	}
	slots := e.cluster.TotalSlots()
	if slots < 1 {
		slots = 1
	}
	budget := job.MemoryTargetBytes / int64(slots)
	if budget < 1 {
		budget = 1
	}
	return budget
}

// Run executes one job to completion and returns its result.
func (e *Engine) Run(job *Job) (*Result, error) {
	start := time.Now()
	if err := validate(job); err != nil {
		return nil, err
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = 1
	}
	partition := job.Partitioner
	if partition == nil {
		partition = HashPartition
	}
	maxAttempts := job.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	if existing := e.fs.List(job.OutputPath); len(existing) > 0 {
		return nil, fmt.Errorf("mapreduce: output path %q already exists", job.OutputPath)
	}
	budget := e.shuffleBudgetFor(job)
	mapOnly := job.NewReducer == nil

	// Select the executor. The external path additionally requires the
	// job to wire — a missing kind registration should fail the job at
	// submission, not every task attempt on the workers.
	exec := e.opts.Executor
	if s, ok := exec.(jobScoped); ok {
		exec = s.ForJob(job)
	}
	external := exec != nil && exec.External()
	if external {
		if _, err := job.Wire(budget); err != nil {
			return nil, err
		}
	}

	splits, err := splitsFor(e.fs, job.InputPaths)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %v", job.Name, err)
	}

	res := &Result{
		Job:      job.Name,
		Counters: NewCounters(),
		MapTasks: len(splits),
		Start:    start,
	}
	var lx *localExecutor
	if exec == nil {
		lx = &localExecutor{
			e: e, job: job, mapOnly: mapOnly, numReducers: numReducers,
			partition: partition, budget: budget, counters: res.Counters,
		}
		exec = lx
	}

	bus := e.opts.Obs
	alog := &attemptLog{t0: start}
	io0 := e.fs.IOStats()
	bus.Emit(obs.Event{
		Type: obs.JobSubmitted, Job: job.Name, Parent: job.Parent, Time: start,
		Detail: fmt.Sprintf("maps=%d reducers=%d", len(splits), numReducers),
	})
	// cleanupSpills removes the job's external-shuffle run files and —
	// on an external executor — the uncommitted task temp outputs at
	// job end. Cleanup is best-effort — a stuck delete must not change
	// the job's outcome — but failures are counted, never dropped.
	// Background speculative reduce losers may still be streaming a
	// spill file here; their read error is discarded with the rest of
	// the losing attempt.
	cleanupSpills := func() {
		if external {
			if derr := e.fs.DeleteDir(tmpDir(job.Name)); derr != nil {
				res.Counters.Get(CounterGroupShuffle, CounterShuffleSpillCleanupErrors).Inc(1)
			}
		}
		if (budget <= 0 && !external) || mapOnly {
			return
		}
		if derr := e.fs.DeleteDir(spillDir(job)); derr != nil {
			res.Counters.Get(CounterGroupShuffle, CounterShuffleSpillCleanupErrors).Inc(1)
		}
	}
	// fail reports the job's failure on the bus before returning it.
	// Any part files already committed are removed first — the output-
	// exists check at submission guarantees everything under OutputPath
	// was written by this job, and leaving partial output behind would
	// make a rerun of the same job fail on that very check.
	fail := func(err error) (*Result, error) {
		cleanupSpills()
		if derr := e.fs.DeleteDir(job.OutputPath); derr != nil {
			// A rerun would now trip the output-exists check; make the
			// stuck cleanup part of the reported failure.
			err = fmt.Errorf("%v (cleaning partial output: %v)", err, derr)
		}
		bus.Emit(obs.Event{
			Type: obs.JobFinished, Job: job.Name, Parent: job.Parent,
			Dur: time.Since(start), Err: err.Error(),
		})
		return nil, err
	}
	// complete finalises a successful result: attempt records, the
	// job's share of DFS I/O, the finish event, and the history record.
	complete := func() *Result {
		cleanupSpills()
		res.Wall = time.Since(start)
		io1 := e.fs.IOStats()
		res.Counters.Get(CounterGroupDFS, CounterDFSBytesRead).Inc(io1.BytesRead - io0.BytesRead)
		res.Counters.Get(CounterGroupDFS, CounterDFSBytesWritten).Inc(io1.BytesWritten - io0.BytesWritten)
		res.Counters.Get(CounterGroupDFS, CounterDFSChunksRead).Inc(io1.ChunksRead - io0.ChunksRead)
		res.Attempts = alog.snapshot()
		bus.Emit(obs.Event{
			Type: obs.JobFinished, Job: job.Name, Parent: job.Parent, Dur: res.Wall,
		})
		if e.opts.History != nil {
			// History is diagnostics: a full store must not fail the
			// job, but a failed store must not vanish either.
			if _, herr := e.opts.History.Save(res.HistoryRecord()); herr != nil {
				res.Counters.Get(CounterGroupEngine, CounterHistorySaveErrors).Inc(1)
			}
		}
		return res
	}

	// ---- Map phase ----
	mapStart := time.Now()
	bus.Emit(obs.Event{Type: obs.PhaseStart, Job: job.Name, Phase: "map", Time: mapStart})
	outputs := make([]*mapOutput, len(splits))
	mapTemps := make([]string, len(splits)) // external map-only temp files
	reports := make([]TaskReport, len(splits))
	mapSpecs := make([]TaskSpec, len(splits))
	for i, sp := range splits {
		mapSpecs[i] = TaskSpec{
			Job: job, Phase: "map", TaskID: fmt.Sprintf("map-%04d", i), Index: i,
			MapOnly: mapOnly, NumReducers: numReducers, ShuffleBudget: budget,
			Split: sp,
		}
	}
	// Only the winning attempt's result is committed — counters, stats
	// and output alike (speculative losers are discarded).
	err = e.schedule(job, "map", alog, mapSpecs, maxAttempts, res.Counters, exec, func(i int, tr TaskResult) {
		st := tr.Stats
		res.Counters.Get(CounterGroupTask, CounterMapInputRecords).Inc(st.MapInputRecords)
		res.Counters.Get(CounterGroupTask, CounterMapOutputRecords).Inc(st.MapOutputRecords)
		if job.NewCombiner != nil && !mapOnly {
			res.Counters.Get(CounterGroupTask, CounterCombineInput).Inc(st.CombineInputRecords)
			res.Counters.Get(CounterGroupTask, CounterCombineOutput).Inc(st.CombineOutputRecords)
		}
		if !mapOnly {
			res.Counters.Get(CounterGroupShuffle, CounterShuffleSpilledRecords).Inc(st.SpilledRecords)
			if st.SpillFiles > 0 {
				res.Counters.Get(CounterGroupShuffle, CounterShuffleSpillFiles).Inc(st.SpillFiles)
				res.Counters.Get(CounterGroupShuffle, CounterShuffleSpillBytes).Inc(st.SpillBytes)
			}
		}
		mergeUserCounters(res.Counters, tr.UserCounters)
		switch {
		case external && mapOnly:
			mapTemps[i] = tr.OutFile
		case external:
			outputs[i] = remoteMapOutput(tr.MapRuns, numReducers)
		default:
			outputs[i] = tr.localMap
		}
		reports[i].Records = tr.Records
	}, reports)
	if err != nil {
		// Close the phase even on failure: an unpaired PhaseStart reads
		// as a still-running phase to the tracker and timeline.
		bus.Emit(obs.Event{
			Type: obs.PhaseEnd, Job: job.Name, Phase: "map",
			Dur: time.Since(mapStart), Err: err.Error(),
		})
		return fail(fmt.Errorf("mapreduce: job %s: %v", job.Name, err))
	}
	res.MapWall = time.Since(mapStart)
	bus.Emit(obs.Event{Type: obs.PhaseEnd, Job: job.Name, Phase: "map", Dur: res.MapWall})

	if mapOnly {
		// Each map task's output becomes a part-m file: written from
		// memory in-process, renamed from the winner's temp file on an
		// external executor.
		for i := range splits {
			name := fmt.Sprintf("%s/part-m-%05d", job.OutputPath, i)
			if external {
				if err := e.fs.Rename(mapTemps[i], name); err != nil {
					return fail(err)
				}
			} else {
				if err := e.writePartFile(name, outputs[i].parts[0], job.BinaryOutput); err != nil {
					return fail(err)
				}
			}
			res.OutputFiles = append(res.OutputFiles, name)
		}
		res.Tasks = reports
		return complete(), nil
	}

	// ---- Shuffle: the only communication step (§III). ----
	// Sort-based: every map task committed pre-sorted runs per reduce
	// partition, so the shuffle is a k-way merge per partition, run in
	// parallel across partitions bounded by the cluster's task slots.
	shuffleStart := time.Now()
	res.ReduceTasks = numReducers
	// Collect every map task's runs per partition, in (map task, spill
	// sequence) order — the order the merges' tie-break relies on for
	// stability. Map outputs are released as the shuffle takes
	// ownership, so outputs and merged partitions are never both
	// retained (peak shuffle memory used to be ~2× intermediate data).
	sources := make([][]shuffleSource, numReducers)
	external2 := make([]bool, numReducers)
	var totalRuns int64
	for i, out := range outputs {
		for p := 0; p < numReducers; p++ {
			if len(out.parts[p]) > 0 {
				sources[p] = append(sources[p], shuffleSource{mem: out.parts[p]})
				totalRuns++
			}
			if out.fileRuns != nil {
				for _, fr := range out.fileRuns[p] {
					sources[p] = append(sources[p], shuffleSource{file: fr})
					external2[p] = true
					totalRuns++
				}
			}
		}
		outputs[i] = nil
	}
	bus.Emit(obs.Event{
		Type: obs.PhaseStart, Job: job.Name, Phase: "shuffle", Time: shuffleStart,
		Detail: fmt.Sprintf("partitions=%d runs=%d", numReducers, totalRuns),
	})
	// Partitions whose runs all sit in memory are merged eagerly as
	// before, bounded by the cluster's task slots; partitions with any
	// file-backed run defer their merge to the reduce attempts, which
	// stream it (extPartition.iter) instead of materialising it. On an
	// external executor every non-empty partition is file-backed.
	reduceInputs := make([][]KV, numReducers)
	extParts := make([]*extPartition, numReducers)
	runCounts := make([]int64, numReducers)
	recCounts := make([]int64, numReducers)
	partBytes := make([]int64, numReducers)
	partDur := make([]time.Duration, numReducers)
	slots := e.cluster.TotalSlots()
	if slots < 1 {
		slots = 1
	}
	sem := make(chan struct{}, slots)
	var mergeWG sync.WaitGroup
	for p := 0; p < numReducers; p++ {
		runCounts[p] = int64(len(sources[p]))
		if external2[p] {
			ext := &extPartition{sources: sources[p]}
			for _, s := range sources[p] {
				if s.file.path != "" {
					ext.records += s.file.records
					ext.bytes += s.file.bytes
					continue
				}
				ext.records += int64(len(s.mem))
				for _, kv := range s.mem {
					ext.bytes += int64(len(kv.Key) + len(kv.Value))
				}
			}
			extParts[p] = ext
			recCounts[p] = ext.records
			partBytes[p] = ext.bytes
			continue
		}
		mergeWG.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer mergeWG.Done()
			defer func() { <-sem }()
			mergeStart := time.Now()
			runs := make([][]KV, len(sources[p]))
			for i, s := range sources[p] {
				runs[i] = s.mem
			}
			merged := mergeRuns(runs, job.KeyCompare)
			var b int64
			for _, kv := range merged {
				b += int64(len(kv.Key) + len(kv.Value))
			}
			reduceInputs[p] = merged
			recCounts[p] = int64(len(merged))
			partBytes[p] = b
			partDur[p] = time.Since(mergeStart)
			// Release the run slices: merged now holds (or, for a lone
			// run, aliases) the partition's data.
			sources[p] = nil
		}(p)
	}
	mergeWG.Wait()
	var shuffleBytes int64
	for _, b := range partBytes {
		shuffleBytes += b
	}
	res.Counters.Get(CounterGroupShuffle, CounterShuffleBytes).Inc(shuffleBytes)
	res.Counters.Get(CounterGroupShuffle, CounterShuffleRunsMerged).Inc(totalRuns)
	res.ShuffleWall = time.Since(shuffleStart)
	var parts []obs.PartStat
	if bus.Active() {
		parts = make([]obs.PartStat, numReducers)
		for p := 0; p < numReducers; p++ {
			parts[p] = obs.PartStat{
				Part:    p,
				Runs:    runCounts[p],
				Records: recCounts[p],
				Bytes:   partBytes[p],
				DurUs:   partDur[p].Microseconds(),
			}
		}
	}
	bus.Emit(obs.Event{
		Type: obs.PhaseEnd, Job: job.Name, Phase: "shuffle", Dur: res.ShuffleWall,
		Value: shuffleBytes, Detail: shuffleDetail(runCounts, recCounts, partBytes),
		Parts: parts,
	})

	// ---- Reduce phase ----
	reduceStart := time.Now()
	bus.Emit(obs.Event{Type: obs.PhaseStart, Job: job.Name, Phase: "reduce", Time: reduceStart})
	reduceReports := make([]TaskReport, numReducers)
	reduceSpecs := make([]TaskSpec, numReducers) // no locality: reducers read from all mappers
	for r := 0; r < numReducers; r++ {
		reduceSpecs[r] = TaskSpec{
			Job: job, Phase: "reduce", TaskID: fmt.Sprintf("reduce-%04d", r), Index: r,
			NumReducers: numReducers, ShuffleBudget: budget, Partition: r,
		}
		if external {
			if ext := extParts[r]; ext != nil {
				runs := make([]RunDesc, 0, len(ext.sources))
				for _, s := range ext.sources {
					runs = append(runs, RunDesc{Path: s.file.path, Records: s.file.records, Bytes: s.file.bytes})
				}
				reduceSpecs[r].Runs = runs
			}
		}
	}
	if lx != nil {
		// Hand the in-process executor the shuffle's product: eagerly
		// merged partitions and deferred file-backed ones.
		lx.reduceInputs, lx.extParts = reduceInputs, extParts
	}
	partFiles := make([][]KV, numReducers)
	reduceTemps := make([]string, numReducers)
	err = e.schedule(job, "reduce", alog, reduceSpecs, maxAttempts, res.Counters, exec, func(r int, tr TaskResult) {
		st := tr.Stats
		res.Counters.Get(CounterGroupTask, CounterReduceInputRecords).Inc(st.ReduceInputRecords)
		res.Counters.Get(CounterGroupTask, CounterReduceOutput).Inc(st.ReduceOutputRecords)
		res.Counters.Get(CounterGroupTask, CounterReduceInputGroups).Inc(st.ReduceInputGroups)
		mergeUserCounters(res.Counters, tr.UserCounters)
		partFiles[r] = tr.localReduce
		reduceTemps[r] = tr.OutFile
		reduceReports[r].Records = tr.Records
	}, reduceReports)
	if err != nil {
		bus.Emit(obs.Event{
			Type: obs.PhaseEnd, Job: job.Name, Phase: "reduce",
			Dur: time.Since(reduceStart), Err: err.Error(),
		})
		return fail(fmt.Errorf("mapreduce: job %s: %v", job.Name, err))
	}
	res.ReduceWall = time.Since(reduceStart)
	bus.Emit(obs.Event{Type: obs.PhaseEnd, Job: job.Name, Phase: "reduce", Dur: res.ReduceWall})

	for r := 0; r < numReducers; r++ {
		name := fmt.Sprintf("%s/part-r-%05d", job.OutputPath, r)
		if external {
			if err := e.fs.Rename(reduceTemps[r], name); err != nil {
				return fail(err)
			}
		} else {
			if err := e.writePartFile(name, partFiles[r], job.BinaryOutput); err != nil {
				return fail(err)
			}
		}
		res.OutputFiles = append(res.OutputFiles, name)
	}
	res.Tasks = append(reports, reduceReports...)
	return complete(), nil
}

// runReduce feeds each distinct-key group of a sorted record stream to
// the reducer (used for both real reducers and combiners). The input
// iterator must yield records in non-decreasing key order; grouping is
// streaming, so the whole input is never copied or re-sorted. If
// groupCount is non-nil it receives the number of distinct keys.
// Counters are the caller's responsibility (only winning attempts
// commit them).
func runReduce(ctx *TaskContext, red Reducer, it kvIter, groupCount *int64, cmp func(a, b string) int) ([]KV, error) {
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	if err := red.Setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %v", err)
	}
	g := newGroupIter(it, cmp)
	var groups int64
	for {
		key, values, ok := g.next()
		if !ok {
			break
		}
		if err := red.Reduce(ctx, key, values, emit); err != nil {
			return nil, err
		}
		groups++
	}
	if err := red.Cleanup(ctx, emit); err != nil {
		return nil, fmt.Errorf("cleanup: %v", err)
	}
	if groupCount != nil {
		*groupCount = groups
	}
	return out, nil
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

// encodePartFile renders records in the part-file format — recordio
// binary records, or "key\tvalue" text lines. It is shared by the
// driver's commit path and the out-of-process workers, which is what
// makes remote part files byte-identical to in-process ones.
func encodePartFile(kvs []KV, binary bool) []byte {
	if binary {
		w := recordio.NewWriter()
		for _, kv := range kvs {
			w.Add(kv.Key, kv.Value)
		}
		return w.Bytes()
	}
	var sb strings.Builder
	for _, kv := range kvs {
		sb.WriteString(kv.Key)
		sb.WriteByte('\t')
		sb.WriteString(kv.Value)
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// writePartFile stores records in DFS as one part file.
func (e *Engine) writePartFile(path string, kvs []KV, binary bool) error {
	return e.fs.Create(path, encodePartFile(kvs, binary), "")
}

// ReadOutput reads back all part files of a completed job's output
// directory as KV records, in part-file order. Each file's format —
// binary record file or text lines — is sniffed from its header, so
// mixed outputs read uniformly.
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
		if recordio.IsRecordData(data) {
			err := recordio.ScanAll(data, func(k, v string) error {
				out = append(out, KV{Key: k, Value: v})
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			k, v, _ := strings.Cut(line, "\t")
			out = append(out, KV{k, v})
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
	if job.NewMapper == nil {
		return fmt.Errorf("mapreduce: job %s: NewMapper is required", job.Name)
	}
	if len(job.InputPaths) == 0 {
		return fmt.Errorf("mapreduce: job %s: no input paths", job.Name)
	}
	if job.OutputPath == "" {
		return fmt.Errorf("mapreduce: job %s: no output path", job.Name)
	}
	if job.NewCombiner != nil && job.NewReducer == nil {
		return fmt.Errorf("mapreduce: job %s: combiner without reducer", job.Name)
	}
	return nil
}
