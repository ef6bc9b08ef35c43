package mapreduce

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/recordio"
)

// joinReducer emits each key with its comma-joined value stream, so a
// job's output captures the full grouped kv stream the shuffle fed the
// reducer — grouping, key order and within-group value order included.
type joinReducer struct {
	TypedReducerBase[string, string]
}

func (joinReducer) Reduce(_ *TaskContext, key string, values []string, emit strEmit) error {
	emit(key, strings.Join(values, ","))
	return nil
}

// runShuffledWordCount runs one wordcount-shaped job over text and
// returns its sorted output plus the result. budget=0 is the legacy
// in-memory shuffle; small budgets force map-side spills to DFS.
func runShuffledWordCount(seed int64, text string, reducers int, budget int64, compress, combiner, joined, reverse bool) ([]KV, *Result, error) {
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		return nil, nil, err
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 120, Replication: 3, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	e := NewEngine(c, fs, Options{})
	if err := fs.Create("in/f", []byte(text), ""); err != nil {
		return nil, nil, err
	}
	tj := strJob{
		Name:            "ext-shuffle",
		InputPaths:      []string{"in/f"},
		OutputPath:      "out",
		Mapper:          func() strMapper { return wordMapper{} },
		Reducer:         func() strReducer { return sumReducer{} },
		NumReducers:     reducers,
		MaxShuffleBytes: budget,
		CompressSpill:   compress,
	}
	if joined {
		tj.Reducer = func() strReducer { return joinReducer{} }
	}
	if combiner {
		tj.Combiner = func() strReducer { return sumReducer{} }
	}
	if reverse {
		tj.MapKey = reversed[string]{recordio.RawString{}}
	}
	res, err := e.Run(build(tj))
	if err != nil {
		return nil, nil, err
	}
	kvs, err := e.ReadOutput("out")
	if err != nil {
		return nil, nil, err
	}
	sortRun(kvs, nil)
	return kvs, res, nil
}

// TestPropertyExternalShuffleEqualsInMemory is the external shuffle's
// core contract: for random inputs, reducer counts, budgets, custom
// key orders and combiner/compression settings, the spill-to-DFS path
// produces record-for-record the output of the all-in-memory path.
// With the combiner off the joined-values reducer makes the comparison
// cover the complete grouped kv stream, not just aggregates.
func TestPropertyExternalShuffleEqualsInMemory(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64, reducersRaw, budgetRaw uint8, combiner, compress, reverse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randText(rng)
		reducers := int(reducersRaw)%4 + 1
		// 32..287 bytes: small enough that most tasks spill repeatedly.
		budget := int64(budgetRaw) + 32
		joined := !combiner // full-stream comparison needs an uncombined stream

		want, _, err := runShuffledWordCount(seed, text, reducers, 0, false, combiner, joined, reverse)
		if err != nil {
			t.Logf("seed=%d in-memory: %v", seed, err)
			return false
		}
		got, _, err := runShuffledWordCount(seed, text, reducers, budget, compress, combiner, joined, reverse)
		if err != nil {
			t.Logf("seed=%d external: %v", seed, err)
			return false
		}
		if len(got) != len(want) {
			t.Logf("seed=%d: %d records, want %d", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed=%d budget=%d: record %d = %v, want %v", seed, budget, i, got[i], want[i])
				return false
			}
		}
		// Whether a given task actually spilled depends on its split
		// size vs the budget; TestExternalShuffleSpillsAndCleansUp pins
		// that spills do engage. Here only equivalence matters.
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestExternalShuffleSpillsAndCleansUp pins the observable spill
// lifecycle: counters prove runs went to DFS, the output is correct,
// and the job's spill directory is gone when Run returns.
func TestExternalShuffleSpillsAndCleansUp(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 256, Replication: 3, Seed: 7})
	e := NewEngine(c, fs, Options{})
	writeInput(t, e, "in/f", strings.Repeat("alpha beta gamma delta\n", 200))
	job := build(strJob{
		Name:            "spilly",
		InputPaths:      []string{"in/f"},
		OutputPath:      "out",
		Mapper:          func() strMapper { return wordMapper{} },
		Reducer:         func() strReducer { return sumReducer{} },
		Combiner:        func() strReducer { return sumReducer{} },
		NumReducers:     3,
		MaxShuffleBytes: 64,
		CompressSpill:   true,
	})
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	files := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillFiles)
	bytes := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillBytes)
	if files == 0 || bytes == 0 {
		t.Fatalf("no spills recorded: files=%d bytes=%d", files, bytes)
	}
	if errs := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillCleanupErrors); errs != 0 {
		t.Fatalf("spill cleanup reported %d errors", errs)
	}
	if left := fs.List(spillDir(job)); len(left) != 0 {
		t.Fatalf("spill dir not cleaned up: %v", left)
	}
	kvs, err := e.ReadOutput("out")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	for _, w := range []string{"alpha", "beta", "gamma", "delta"} {
		if got[w] != "200" {
			t.Fatalf("word %q = %q, want 200 (output: %v)", w, got[w], got)
		}
	}
}

// TestExternalShuffleUnderSpeculation drives the spill path while a
// straggler node forces speculative backup attempts, so concurrent
// attempts of one task write (and clean up) attempt-unique spill runs
// at once — the scenario the -race CI step exists for.
func TestExternalShuffleUnderSpeculation(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 1)
	slowNode := c.Nodes()[0].ID
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 3, Seed: 1})
	e := NewEngine(c, fs, Options{
		SpeculativeSlack: 10 * time.Millisecond,
		NodeDelay: func(node string) time.Duration {
			if node == slowNode {
				return 150 * time.Millisecond
			}
			return 2 * time.Millisecond
		},
	})
	writeInput(t, e, "in/f", strings.Repeat("hello world again\n", 60))
	res, err := e.Run(build(strJob{
		Name:            "speculative-spill",
		InputPaths:      []string{"in/f"},
		OutputPath:      "out",
		Mapper:          func() strMapper { return wordMapper{} },
		Reducer:         func() strReducer { return sumReducer{} },
		NumReducers:     2,
		MaxShuffleBytes: 48,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if spills := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillFiles); spills == 0 {
		t.Fatal("speculative run never spilled; budget too high for the fixture")
	}
	kvs, err := e.ReadOutput("out")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	for _, w := range []string{"hello", "world", "again"} {
		if got[w] != "60" {
			t.Fatalf("word %q = %q, want 60", w, got[w])
		}
	}
}

// TestMapOnlyJobIgnoresShuffleBudget asserts the budget knob is inert
// for map-only jobs: output goes straight to part files, no spill dir.
func TestMapOnlyJobIgnoresShuffleBudget(t *testing.T) {
	e := newTestEngine(t, 64)
	writeInput(t, e, "in/f", strings.Repeat("a b c\n", 50))
	job := build(strJob{
		Name:            "maponly-budget",
		InputPaths:      []string{"in/f"},
		OutputPath:      "out",
		Mapper:          func() strMapper { return wordMapper{} },
		MaxShuffleBytes: 16,
	})
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if spills := res.Counters.Value(CounterGroupShuffle, CounterShuffleSpillFiles); spills != 0 {
		t.Fatalf("map-only job wrote %d spill files", spills)
	}
	kvs, err := e.ReadOutput("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 150 {
		t.Fatalf("map-only output %d records, want 150", len(kvs))
	}
}

// TestSpillRunTruncationIsAnError reads a truncated copy of a real
// spill run through the reduce-side cursor: the stream must fail
// loudly, never end in a silently short group stream.
func TestSpillRunTruncationIsAnError(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 20, Replication: 3, Seed: 3})
	e := NewEngine(c, fs, Options{})
	job := build(strJob{Name: "trunc", MaxShuffleBytes: 1})
	spec := TaskSpec{Job: job, TaskID: "m0", NumReducers: 1}
	sp := newMapSpiller(e.fs, &TaskContext{}, spec, false)
	for i := 0; i < 50; i++ {
		sp.emit(fmt.Sprintf("key-%02d", i), "value-payload")
	}
	_, files, err := sp.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(files[0]) == 0 {
		t.Fatal("fixture produced no file runs")
	}
	rd := files[0][0]
	data, err := fs.ReadAll(rd.Path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := rd
	trunc.Path += ".trunc"
	if err := fs.Create(trunc.Path, data[:len(data)-3], ""); err != nil {
		t.Fatal(err)
	}
	it := newMergeIter(fs, []run{{file: trunc}}, nil)
	for _, ok := it.next(); ok; _, ok = it.next() {
	}
	if it.Err() == nil {
		t.Fatal("truncated spill run read to a clean EOF")
	}
}
