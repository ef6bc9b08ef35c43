package trace

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/recordio"
)

type wordMapper struct {
	mapreduce.TypedMapperBase[string, int64]
}

func (wordMapper) Map(_ *mapreduce.TaskContext, _, value string, emit mapreduce.TypedEmit[string, int64]) error {
	for _, w := range strings.Fields(value) {
		emit(w, 1)
	}
	return nil
}

type sumReducer struct {
	mapreduce.TypedReducerBase[string, int64]
}

func (sumReducer) Reduce(_ *mapreduce.TaskContext, key string, values []int64, emit mapreduce.TypedEmit[string, int64]) error {
	var total int64
	for _, v := range values {
		total += v
	}
	emit(key, total)
	return nil
}

// TestEngineTracePhaseSumMatchesWall runs a real engine job through
// the collector and checks the acceptance criterion end to end: the
// critical path's per-phase durations sum to within 5% of the job's
// recorded wall-clock (by construction they sum exactly to the span
// wall; the 5% headroom covers event-stamping jitter against
// Result.Wall), and the Chrome export round-trips the schema.
func TestEngineTracePhaseSumMatchesWall(t *testing.T) {
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 1 << 10, Replication: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(NewStore(fs), 0)
	e := mapreduce.NewEngine(c, fs, mapreduce.Options{Obs: obs.NewBus(col)})
	if err := fs.Create("in/text", []byte(strings.Repeat("the quick brown fox jumps over the lazy dog\n", 200)), ""); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.RunTyped(e, &mapreduce.TypedJob[string, string, string, int64, string, int64]{
		Name:       "wordcount",
		InputPaths: []string{"in"},
		OutputPath: "out",
		Mapper: func() mapreduce.TypedMapper[string, string, string, int64] {
			return wordMapper{}
		},
		Reducer: func() mapreduce.TypedReducer[string, int64, string, int64] {
			return sumReducer{}
		},
		InputKey:    recordio.RawString{},
		InputValue:  recordio.RawString{},
		MapKey:      recordio.RawString{},
		MapValue:    recordio.Int64{},
		OutputKey:   recordio.RawString{},
		OutputValue: recordio.Int64{},
		NumReducers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr, ok := col.Find("wordcount")
	if !ok {
		t.Fatal("collector did not finalize the job tree")
	}
	a := AnalyzeTree(tr, Options{})
	if len(a.Jobs) != 1 {
		t.Fatalf("analyzed jobs: %d", len(a.Jobs))
	}
	ja := a.Jobs[0]
	var sum int64
	for _, pc := range ja.Phases {
		sum += pc.DurUs
	}
	wall := res.Wall.Microseconds()
	if wall <= 0 {
		t.Fatal("job recorded no wall time")
	}
	diff := sum - wall
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(wall) {
		t.Errorf("phase durations sum to %dµs, recorded wall %dµs (off by %.1f%%, want ≤5%%)",
			sum, wall, 100*float64(diff)/float64(wall))
	}

	// The shuffle span carries one PartStat per reducer, and the skew
	// pass sees all the records.
	if ja.Skew == nil || ja.Skew.Partitions != 3 {
		t.Fatalf("skew report: %+v", ja.Skew)
	}
	if ja.Skew.TotalBytes != res.Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleBytes) {
		t.Errorf("skew bytes = %d, want shuffle_bytes counter", ja.Skew.TotalBytes)
	}

	// The persisted tree is findable and the Chrome export validates.
	st := NewStore(fs)
	stored, ok := st.Find("wordcount")
	if !ok {
		t.Fatal("tree not persisted to the store")
	}
	data, err := EncodeChrome(stored)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChrome(data); err != nil {
		t.Errorf("persisted tree's chrome export invalid: %v", err)
	}
}
