// The executor layer: the boundary between the scheduler (which
// decides WHERE and WHEN an attempt runs) and task execution (which
// decides HOW). The scheduler only ever sees TaskSpec in and
// TaskResult out, so the same locality / speculation / retry machinery
// drives both the in-process backend (tasks as goroutines, results
// passed by pointer) and the RPC backend (tasks shipped to worker
// processes, results gob-encoded over the wire).

package mapreduce

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dfs"
)

// RunDesc describes one file-backed sorted run in the DFS — the wire
// form of a spillRun, exported so task results cross process
// boundaries.
type RunDesc struct {
	Path    string
	Records int64
	Bytes   int64 // raw key+value bytes, pre-compression
}

// TaskSpec is everything an executor needs to run one task attempt.
// Exactly one of Split (map) or Partition+Runs (reduce) is meaningful,
// selected by Phase.
type TaskSpec struct {
	// Job is the full job description. In-process executors use its
	// function fields directly; remote executors ship it as a JobWire
	// and re-materialise the functions from the kind registry.
	Job *Job
	// Phase is "map" or "reduce".
	Phase string
	// TaskID is the task identifier ("map-0007", "reduce-0000").
	TaskID string
	// Index is the task's position in its phase (split index for maps,
	// partition number for reduces).
	Index int
	// Attempt is the attempt number, unique per task.
	Attempt int
	// Node is the tasktracker the scheduler placed this attempt on.
	Node string
	// MapOnly marks jobs without a reducer.
	MapOnly bool
	// NumReducers is the resolved reducer count (>= 1).
	NumReducers int
	// ShuffleBudget is the resolved per-task spill budget in bytes
	// (Job.MaxShuffleBytes, or the adaptive derivation from
	// Job.MemoryTargetBytes; 0 keeps the in-memory shuffle).
	ShuffleBudget int64
	// Split is the map task's input range.
	Split InputSplit
	// Partition is the reduce task's partition number.
	Partition int
	// Runs are the file-backed sorted runs feeding a reduce task on an
	// external executor (every map output is file-backed there).
	Runs []RunDesc
}

// TaskStats carries the winning attempt's counter deltas back to the
// driver, which commits them winner-only (speculative losers are
// discarded, stats and all).
type TaskStats struct {
	MapInputRecords      int64
	MapOutputRecords     int64
	CombineInputRecords  int64
	CombineOutputRecords int64
	SpilledRecords       int64
	SpillFiles           int64
	SpillBytes           int64
	ReduceInputRecords   int64
	ReduceOutputRecords  int64
	ReduceInputGroups    int64
}

// TaskResult is one attempt's output. The exported fields survive gob
// encoding; the local* fields are the in-process fast path (pointers
// into driver memory) and never cross a process boundary.
type TaskResult struct {
	// Records is the number of input records processed.
	Records int64
	// MapRuns lists a map task's spilled runs per reduce partition
	// (external executors only; every partition is file-backed there).
	MapRuns [][]RunDesc
	// OutFile is the attempt-unique temp file holding a reduce or
	// map-only task's final output (external executors only). The
	// driver renames the winner's into place; losers' temps are swept
	// with the job's temp directory.
	OutFile string
	// Stats are the attempt's counter deltas, committed winner-only.
	Stats TaskStats
	// UserCounters snapshots counters ticked by user task code on an
	// external executor, merged into the job's counters winner-only.
	UserCounters map[string]map[string]int64

	localMap    *mapOutput // in-process map output (mem and/or file runs)
	localReduce []KV       // in-process reduce output
}

// Executor runs task attempts for the scheduler.
type Executor interface {
	// RunTask executes one attempt to completion. The context is
	// cancelled when the phase ends, releasing executors that block on
	// remote completion (losing speculative attempts are abandoned).
	RunTask(ctx context.Context, spec TaskSpec) (TaskResult, error)
	// External reports whether results live outside driver memory —
	// map outputs as DFS run files, reduce outputs as DFS temp files —
	// in which case the engine plans an all-file shuffle and commits
	// outputs by rename.
	External() bool
}

// jobScoped is implemented by an Executor that keeps per-submission
// state: Run calls ForJob once per submitted job and runs every
// attempt of that job through the executor it returns.
type jobScoped interface {
	ForJob(job *Job) Executor
}

// localExecutor is the in-process backend: tasks run as goroutines on
// the scheduler's slot workers, exactly as the monolithic engine did.
// It carries the per-job state the phases share (the live counters,
// and the shuffle's merged partitions between map and reduce).
type localExecutor struct {
	e           *Engine
	job         *Job
	mapOnly     bool
	numReducers int
	partition   func(key string, numReducers int) int
	budget      int64
	// counters is the job's live counter registry. Task code ticks it
	// directly — losing speculative attempts included, preserving the
	// engine's historical user-counter semantics.
	counters *Counters
	// reduceInputs / extParts are set by the engine between the map
	// and reduce phases (eagerly merged partitions, and deferred
	// file-backed ones).
	reduceInputs [][]KV
	extParts     []*extPartition
}

func (x *localExecutor) External() bool { return false }

func (x *localExecutor) RunTask(_ context.Context, spec TaskSpec) (TaskResult, error) {
	e := x.e
	if e.opts.FailureHook != nil {
		if ferr := e.opts.FailureHook(spec.TaskID, spec.Attempt, spec.Node); ferr != nil {
			return TaskResult{}, ferr
		}
	}
	if e.opts.TaskOverhead > 0 {
		time.Sleep(e.opts.TaskOverhead)
	}
	ctx := &TaskContext{
		JobName: x.job.Name, TaskID: spec.TaskID, Attempt: spec.Attempt, Node: spec.Node,
		conf: x.job.Conf, cache: x.job.Cache, counters: x.counters,
	}
	if spec.Phase == "map" {
		out, records, sp, err := execMapAttempt(e.fs, x.job, ctx, spec, x.partition, x.budget, false)
		if err != nil {
			return TaskResult{}, err
		}
		return TaskResult{Records: records, Stats: sp.stats(records), localMap: out}, nil
	}
	return x.runReduceAttempt(ctx, spec)
}

// runReduceAttempt consumes the partition through a streaming group
// iterator; each attempt gets its own cursor — over the shared
// read-only merged slice, or, for an external partition, a fresh k-way
// merge with its own file cursors — so concurrent speculative attempts
// need no defensive copy and nobody re-sorts.
func (x *localExecutor) runReduceAttempt(ctx *TaskContext, spec TaskSpec) (TaskResult, error) {
	job, r := x.job, spec.Partition
	var groups, inRecords int64
	var out []KV
	var err error
	if ext := x.extParts[r]; ext != nil {
		it, ierr := ext.iter(x.e.fs, job.KeyCompare)
		if ierr != nil {
			return TaskResult{}, fmt.Errorf("%s: %v", spec.TaskID, ierr)
		}
		out, err = runReduce(ctx, job.NewReducer(), it, &groups, job.KeyCompare)
		if err == nil {
			// The merge stream has no error channel; a spill-file
			// read failure ends it early and surfaces here.
			err = it.Err()
		}
		inRecords = ext.records
	} else {
		out, err = runReduce(ctx, job.NewReducer(), &sliceIter{kvs: x.reduceInputs[r]}, &groups, job.KeyCompare)
		inRecords = int64(len(x.reduceInputs[r]))
	}
	if err != nil {
		return TaskResult{}, fmt.Errorf("%s: %v", spec.TaskID, err)
	}
	return TaskResult{
		Records:     inRecords,
		localReduce: out,
		Stats: TaskStats{
			ReduceInputRecords:  inRecords,
			ReduceOutputRecords: int64(len(out)),
			ReduceInputGroups:   groups,
		},
	}, nil
}

// execMapAttempt is the map-attempt body shared by the in-process
// executor and the worker-side ExecuteTask: feed the split through the
// mapper into a spiller, seal the output. With forceSpill every
// partition ends file-backed (the RPC backend's only way to move
// intermediate data between processes).
func execMapAttempt(store dfs.Store, job *Job, ctx *TaskContext, spec TaskSpec, partition func(string, int) int, budget int64, forceSpill bool) (*mapOutput, int64, *mapSpiller, error) {
	// The spiller owns the partitioned output buffer: with no budget it
	// reduces to the legacy commit-time sort+combine (Hadoop's map-side
	// spill sort — the shuffle then only merges pre-sorted runs and the
	// reducers never re-sort); with a budget it additionally writes
	// sorted+combined run files to DFS whenever the buffer trips it.
	sp := newMapSpiller(store, job, ctx, spec.TaskID, spec.Attempt, spec.Node, spec.MapOnly, spec.NumReducers, partition, budget, forceSpill)
	m := job.NewMapper()
	if err := m.Setup(ctx); err != nil {
		return nil, 0, nil, fmt.Errorf("%s setup: %v", spec.TaskID, err)
	}
	var records int64
	err := readSplit(store, spec.Split, func(key, value string) error {
		records++
		return m.Map(ctx, key, value, sp.emit)
	})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("%s: %v", spec.TaskID, err)
	}
	if err := m.Cleanup(ctx, sp.emit); err != nil {
		return nil, 0, nil, fmt.Errorf("%s cleanup: %v", spec.TaskID, err)
	}
	out, err := sp.finish()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("%s: %v", spec.TaskID, err)
	}
	return out, records, sp, nil
}

// mergeUserCounters folds a remote attempt's counter snapshot into the
// job's registry (winner-only: the scheduler calls commit exactly once
// per task).
func mergeUserCounters(cs *Counters, snap map[string]map[string]int64) {
	for group, names := range snap {
		for name, v := range names {
			if v != 0 {
				cs.Get(group, name).Inc(v)
			}
		}
	}
}
