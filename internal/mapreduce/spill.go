// Map-side spill-to-DFS, the memory-bounded path behind
// Job.MaxShuffleBytes. A map task buffers emitted records per reduce
// partition as before, but tracks the raw key+value bytes; when the
// budget trips, every non-empty partition buffer is sorted, run
// through the combiner (if any), written to DFS as a recordio run file
// — optionally DEFLATE-compressed — and released. The shuffle then
// defers partitions with file-backed runs: instead of an eager
// in-memory merge, the reduce attempt streams a k-way merge over file
// cursors (recordio.FileReader windows over dfs.ReadRange) and any
// in-memory runs from under-budget map tasks, feeding the same group
// iterator the in-memory path uses. With MaxShuffleBytes unset the
// spiller reduces exactly to the legacy commit-time sort+combine, so
// the in-memory path is preserved bit for bit.

package mapreduce

import (
	"fmt"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// spillDir is the DFS directory holding a job's spill run files,
// removed when the job finishes. Concurrent jobs must therefore not
// share a name (they already could not: history and output paths
// collide too).
func spillDir(job *Job) string { return "_shuffle/" + job.Name }

// mapSpiller owns one map attempt's partitioned output buffer and its
// spill lifecycle. It is used by every map task — budget or not — so
// the two shuffle paths share one commit code path.
type mapSpiller struct {
	fs        dfs.Store
	job       *Job
	ctx       *TaskContext
	spec      TaskSpec
	partition func(key string, numReducers int) int
	budget    int64
	// forceSpill makes finish flush every partition to file-backed
	// runs even when nothing tripped the budget — out-of-process map
	// tasks have no other way to hand their output to the driver.
	forceSpill bool

	parts    [][]KV
	bufBytes int64
	spillSeq int
	err      error // first spill failure; emit becomes a no-op after

	fileRuns [][]RunDesc // per partition, spill order

	added      int64 // records emitted by the mapper
	sorted     int64 // records sorted into runs (Hadoop's "Spilled Records")
	combineIn  int64
	combineOut int64
	files      int64 // spill files written
	fileBytes  int64 // on-DFS bytes of those files
}

func newMapSpiller(fs dfs.Store, ctx *TaskContext, spec TaskSpec, forceSpill bool) *mapSpiller {
	partition := spec.Job.partitioner
	if partition == nil {
		partition = HashPartition
	}
	nParts, budget := spec.NumReducers, spec.Job.MaxShuffleBytes
	if spec.MapOnly {
		nParts = 1
		budget = 0 // map-only output goes straight to the task's output file
		forceSpill = false
	}
	return &mapSpiller{
		fs: fs, job: spec.Job, ctx: ctx, spec: spec, partition: partition,
		budget: budget, forceSpill: forceSpill, parts: make([][]KV, nParts),
	}
}

// stats packages the attempt's counter deltas for the TaskResult; the
// driver commits them only for the winning attempt.
func (sp *mapSpiller) stats(inputRecords int64) TaskStats {
	return TaskStats{
		MapInputRecords:      inputRecords,
		MapOutputRecords:     sp.added,
		CombineInputRecords:  sp.combineIn,
		CombineOutputRecords: sp.combineOut,
		SpilledRecords:       sp.sorted,
		SpillFiles:           sp.files,
		SpillBytes:           sp.fileBytes,
	}
}

// emit is the rawEmit the mapper sees. It has no error channel, so a
// spill failure is latched and re-raised by finish.
func (sp *mapSpiller) emit(k, v string) {
	if sp.err != nil {
		return
	}
	p := 0
	if !sp.spec.MapOnly {
		p = sp.partition(k, sp.spec.NumReducers)
	}
	sp.parts[p] = append(sp.parts[p], KV{k, v})
	sp.added++
	if sp.budget > 0 {
		sp.bufBytes += int64(len(k) + len(v))
		if sp.bufBytes >= sp.budget {
			sp.err = sp.spill()
		}
	}
}

// sortCombine is the commit-time run preparation both paths share:
// stable sort, optional combine over the sorted groups, and a re-sort
// of the combined output (a combiner Cleanup may emit out of order) —
// the exact sequence the in-memory commit path has always run.
func (sp *mapSpiller) sortCombine(kvs []KV) ([]KV, error) {
	sortRun(kvs, sp.job.keyCompare)
	if sp.job.newCombiner == nil {
		return kvs, nil
	}
	combined, err := runReduce(sp.ctx, sp.job.newCombiner(), newMergeIter(nil, []run{{mem: kvs}}, sp.job.keyCompare), nil)
	if err != nil {
		return nil, fmt.Errorf("combiner: %v", err)
	}
	sp.combineIn += int64(len(kvs))
	sp.combineOut += int64(len(combined))
	sortRun(combined, sp.job.keyCompare)
	return combined, nil
}

// spill writes every non-empty partition buffer to DFS as one sorted
// (and combined) run file, then resets the buffer accounting.
func (sp *mapSpiller) spill() error {
	for p := range sp.parts {
		if len(sp.parts[p]) == 0 {
			continue
		}
		kvs, err := sp.sortCombine(sp.parts[p])
		if err != nil {
			return err
		}
		var data []byte
		var raw int64
		if sp.job.CompressSpill {
			w := recordio.NewCompressedWriter(0)
			for _, kv := range kvs {
				w.Add(kv.Key, kv.Value)
				raw += int64(len(kv.Key) + len(kv.Value))
			}
			data = w.Bytes()
		} else {
			w := recordio.NewWriter()
			for _, kv := range kvs {
				w.Add(kv.Key, kv.Value)
				raw += int64(len(kv.Key) + len(kv.Value))
			}
			data = w.Bytes()
		}
		path := fmt.Sprintf("%s/%s-a%04d-spill-%04d-p%05d",
			spillDir(sp.job), sp.spec.TaskID, sp.spec.Attempt, sp.spillSeq, p)
		if err := sp.fs.Create(path, data, sp.spec.Node); err != nil {
			return fmt.Errorf("spill %s: %v", path, err)
		}
		if sp.fileRuns == nil {
			sp.fileRuns = make([][]RunDesc, len(sp.parts))
		}
		sp.fileRuns[p] = append(sp.fileRuns[p], RunDesc{
			Path: path, Records: int64(len(kvs)), Bytes: raw,
		})
		sp.sorted += int64(len(kvs))
		sp.files++
		sp.fileBytes += int64(len(data))
		sp.parts[p] = nil
	}
	sp.spillSeq++
	sp.bufBytes = 0
	return nil
}

// finish seals the attempt's output after mapper cleanup, returning
// it as in-memory runs or as file-backed runs per partition. If nothing
// spilled, each partition is sorted and combined in place — the legacy
// commit path, bit for bit. If any spill happened, the remaining
// buffer is flushed too, so every run of this attempt is file-backed.
// A map-only attempt's output is its single unsorted partition.
func (sp *mapSpiller) finish() (mem [][]KV, files [][]RunDesc, err error) {
	if sp.err != nil {
		return nil, nil, sp.err
	}
	if sp.spec.MapOnly {
		return sp.parts, nil, nil
	}
	if sp.spillSeq > 0 || sp.forceSpill {
		if err := sp.spill(); err != nil {
			return nil, nil, err
		}
		return nil, sp.fileRuns, nil
	}
	for p := range sp.parts {
		kvs, err := sp.sortCombine(sp.parts[p])
		if err != nil {
			return nil, nil, err
		}
		sp.parts[p] = kvs
		sp.sorted += int64(len(kvs))
	}
	return sp.parts, nil, nil
}
