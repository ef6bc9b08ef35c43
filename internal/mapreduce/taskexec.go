// Task-attempt execution: the one attempt body both backends run. The
// in-process executor calls it on a slot goroutine; an out-of-process
// tasktracker calls it through ExecuteTask for each assigned attempt.
// Either way an attempt touches nothing the driver owns: map output
// leaves as sorted runs (in memory in-process, DFS run files
// otherwise), reduce and map-only output as an attempt-unique temp
// file the driver renames into place for the winner, and user
// counters as a snapshot in the TaskResult.

package mapreduce

import (
	"fmt"

	"repro/internal/dfs"
)

// tmpDir is the DFS directory holding a job's uncommitted task
// outputs, swept when the job finishes.
func tmpDir(jobName string) string { return "_tmp/" + jobName }

// taskTempPath is the attempt-unique temp path for a task's output:
// concurrent speculative attempts of one task never collide, and a
// retry never collides with the debris of a failed earlier attempt.
func taskTempPath(jobName, taskID string, attempt int) string {
	return fmt.Sprintf("%s/%s-a%04d", tmpDir(jobName), taskID, attempt)
}

// ExecuteTask runs one task attempt against the given store and
// returns its result. It is transport-agnostic — the RPC worker calls
// it with a RemoteStore after materialising spec.Job from the wire;
// tests may call it directly against a local DFS. Every map partition
// ends file-backed, because the driver cannot reach this process's
// memory; a reduce attempt reads spec.Runs.
func ExecuteTask(store dfs.Store, spec TaskSpec) (TaskResult, error) {
	runs := make([]run, len(spec.Runs))
	for i, rd := range spec.Runs {
		runs[i].file = rd
	}
	return executeTask(store, spec, runs, true)
}

// executeTask runs one attempt: a map over spec.Split, or a reduce
// over the partition's sorted runs. With forceSpill every map
// partition is written to DFS run files; at budget 0 that is exactly
// one sorted+combined run per partition — the same records, in the
// same order, an in-memory run would hold.
func executeTask(store dfs.Store, spec TaskSpec, runs []run, forceSpill bool) (TaskResult, error) {
	job := spec.Job
	if job == nil {
		return TaskResult{}, fmt.Errorf("mapreduce: task %s has no job", spec.TaskID)
	}
	// A fresh registry per attempt: user counters reach the driver as
	// a snapshot and are merged winner-only, so a failed or losing
	// attempt contributes nothing.
	counters := NewCounters()
	ctx := &TaskContext{
		JobName: job.Name, TaskID: spec.TaskID, Attempt: spec.Attempt, Node: spec.Node,
		conf: job.Conf, cache: job.Cache, counters: counters,
	}
	var res TaskResult
	var err error
	switch spec.Phase {
	case "map":
		res, err = executeMap(store, ctx, spec, forceSpill)
	case "reduce":
		res, err = executeReduce(store, ctx, spec, runs)
	default:
		err = fmt.Errorf("mapreduce: task %s: unknown phase %q", spec.TaskID, spec.Phase)
	}
	if err != nil {
		return TaskResult{}, err
	}
	res.UserCounters = counters.Snapshot()
	return res, nil
}

func executeMap(store dfs.Store, ctx *TaskContext, spec TaskSpec, forceSpill bool) (TaskResult, error) {
	// The spiller owns the partitioned output buffer: with no budget it
	// reduces to the legacy commit-time sort+combine (Hadoop's map-side
	// spill sort — the shuffle then only merges pre-sorted runs and the
	// reducers never re-sort); with a budget it additionally writes
	// sorted+combined run files to DFS whenever the buffer trips it.
	sp := newMapSpiller(store, ctx, spec, forceSpill)
	m := spec.Job.newMapper()
	if err := m.Setup(ctx); err != nil {
		return TaskResult{}, fmt.Errorf("%s setup: %v", spec.TaskID, err)
	}
	var records int64
	err := readSplit(store, spec.Split, func(key, value string) error {
		records++
		return m.Map(ctx, key, value, sp.emit)
	})
	if err != nil {
		return TaskResult{}, fmt.Errorf("%s: %v", spec.TaskID, err)
	}
	if err := m.Cleanup(ctx, sp.emit); err != nil {
		return TaskResult{}, fmt.Errorf("%s cleanup: %v", spec.TaskID, err)
	}
	mem, files, err := sp.finish()
	if err != nil {
		return TaskResult{}, fmt.Errorf("%s: %v", spec.TaskID, err)
	}
	res := TaskResult{Records: records, Stats: sp.stats(records)}
	if spec.MapOnly {
		if res.OutFile, err = writeTaskOutput(store, spec, mem[0]); err != nil {
			return TaskResult{}, err
		}
		return res, nil
	}
	res.localMap, res.MapRuns = mem, files
	return res, nil
}

// executeReduce consumes the partition through a streaming group
// iterator over a k-way merge of its runs.
func executeReduce(store dfs.Store, ctx *TaskContext, spec TaskSpec, runs []run) (TaskResult, error) {
	var inRecords int64
	for _, r := range runs {
		inRecords += r.records()
	}
	var groups int64
	it := newMergeIter(store, runs, spec.Job.keyCompare)
	out, err := runReduce(ctx, spec.Job.newReducer(), it, &groups)
	if err != nil {
		return TaskResult{}, fmt.Errorf("%s: %v", spec.TaskID, err)
	}
	tmp, err := writeTaskOutput(store, spec, out)
	if err != nil {
		return TaskResult{}, err
	}
	return TaskResult{
		Records: inRecords,
		OutFile: tmp,
		Stats: TaskStats{
			ReduceInputRecords:  inRecords,
			ReduceOutputRecords: int64(len(out)),
			ReduceInputGroups:   groups,
		},
	}, nil
}

// writeTaskOutput stores a reduce or map-only attempt's records in its
// attempt-unique temp file, in the part-file format.
func writeTaskOutput(store dfs.Store, spec TaskSpec, kvs []KV) (string, error) {
	tmp := taskTempPath(spec.Job.Name, spec.TaskID, spec.Attempt)
	if err := store.Create(tmp, encodePartFile(kvs), spec.Node); err != nil {
		return "", fmt.Errorf("%s: %v", spec.TaskID, err)
	}
	return tmp, nil
}

// runReduce feeds each distinct-key group of a merged record stream to
// the reducer (used for both real reducers and combiners). Grouping is
// streaming, so the whole input is never copied or re-sorted. If
// groupCount is non-nil it receives the number of distinct keys. A
// stream cut short by a run read error fails the call before the
// reducer's Cleanup runs. Counters are the caller's responsibility
// (only winning attempts commit them).
func runReduce(ctx *TaskContext, red rawReducer, it *mergeIter, groupCount *int64) ([]KV, error) {
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	if err := red.Setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %v", err)
	}
	g := newGroupIter(it)
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
	if err := it.Err(); err != nil {
		return nil, err
	}
	if err := red.Cleanup(ctx, emit); err != nil {
		return nil, fmt.Errorf("cleanup: %v", err)
	}
	if groupCount != nil {
		*groupCount = groups
	}
	return out, nil
}
