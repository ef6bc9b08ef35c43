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
	"time"
)

// RunDesc describes one file-backed sorted run of a single reduce
// partition in the DFS: a map task's spill, or on an out-of-process
// executor any map output. Exported so task results cross process
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
	// Split is the map task's input range.
	Split InputSplit
	// Partition is the reduce task's partition number.
	Partition int
	// Runs are the sorted runs feeding a reduce task on an external
	// executor (every map output is file-backed there). The in-process
	// executor reads the shuffle's plan, in-memory runs included.
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
// encoding; localMap is the in-process fast path (runs held in driver
// memory) and never crosses a process boundary.
type TaskResult struct {
	// Records is the number of input records processed.
	Records int64
	// MapRuns lists a map task's file-backed runs per reduce partition:
	// its spills, or on an external executor every partition.
	MapRuns [][]RunDesc
	// OutFile is the attempt-unique temp file holding a reduce or
	// map-only task's final output. The driver renames the winner's
	// into place; losers' temps are swept with the job's temp
	// directory.
	OutFile string
	// Stats are the attempt's counter deltas, committed winner-only.
	Stats TaskStats
	// UserCounters snapshots the counters the attempt's user code
	// ticked, merged into the job's counters winner-only.
	UserCounters map[string]map[string]int64

	localMap [][]KV // in-process map output: sorted runs per partition, unless spilled
}

// Executor runs task attempts for the scheduler.
type Executor interface {
	// RunTask executes one attempt to completion. The context is
	// cancelled when the phase ends, releasing executors that block on
	// remote completion (losing speculative attempts are abandoned).
	RunTask(ctx context.Context, spec TaskSpec) (TaskResult, error)
	// External reports whether attempts run out of process. Their map
	// output cannot stay in driver memory, so every partition is
	// spilled to DFS run files, and the scheduler releases abandoned
	// attempts by cancelling the phase context instead of joining
	// them.
	External() bool
}

// jobScoped is implemented by an Executor that keeps per-submission
// state: Run calls ForJob once per submitted job and runs every
// attempt of that job through the executor it returns.
type jobScoped interface {
	ForJob(job *Job) Executor
}

// localExecutor is the in-process backend: tasks run as goroutines on
// the scheduler's slot workers, through the same attempt body a remote
// worker runs, keeping map output in memory unless a budget spills it.
type localExecutor struct {
	e *Engine
	// inputs are the runs the shuffle planned per reduce partition, set
	// by the engine between the map and reduce phases.
	inputs [][]run
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
	var runs []run
	if spec.Phase == "reduce" {
		runs = x.inputs[spec.Partition]
	}
	return executeTask(e.fs, spec, runs, false)
}

// mergeUserCounters folds an attempt's counter snapshot into the
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
