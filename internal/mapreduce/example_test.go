package mapreduce_test

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
)

// Example runs the canonical word count on a 4-node simulated cluster:
// the mapper tokenizes lines into (word, 1) pairs and the reducer sums
// each word's counts.
func Example() {
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	engine := mapreduce.NewEngine(c, fs, mapreduce.Options{})

	input := "the quick brown fox\njumps over the lazy dog\nthe end\n"
	if err := fs.Create("in/text", []byte(input), ""); err != nil {
		log.Fatal(err)
	}

	// Text lines in, (word, count) out; every key and value position
	// has a codec, and the word key's RawString encoding orders the
	// shuffle.
	job := &mapreduce.TypedJob[string, string, string, int64, string, int64]{
		Name:       "wordcount",
		InputPaths: []string{"in/text"},
		OutputPath: "out",
		Mapper: func() mapreduce.TypedMapper[string, string, string, int64] {
			return mapreduce.TypedMapFunc[string, string, string, int64](
				func(_ *mapreduce.TaskContext, _, line string, emit mapreduce.TypedEmit[string, int64]) error {
					for _, w := range strings.Fields(line) {
						emit(w, 1)
					}
					return nil
				})
		},
		Reducer: func() mapreduce.TypedReducer[string, int64, string, int64] {
			return mapreduce.TypedReduceFunc[string, int64, string, int64](
				func(_ *mapreduce.TaskContext, word string, counts []int64, emit mapreduce.TypedEmit[string, int64]) error {
					var n int64
					for _, c := range counts {
						n += c
					}
					emit(word, n)
					return nil
				})
		},
		InputKey:    recordio.RawString{},
		InputValue:  recordio.RawString{},
		MapKey:      recordio.RawString{},
		MapValue:    recordio.Int64{},
		OutputKey:   recordio.RawString{},
		OutputValue: recordio.Int64{},
	}
	if _, err := mapreduce.RunTyped(engine, job); err != nil {
		log.Fatal(err)
	}

	kvs, err := engine.ReadOutput("out")
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	for _, kv := range kvs {
		if kv.Key == "the" || kv.Key == "fox" {
			n, err := recordio.Int64{}.Decode(kv.Value)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s=%d\n", kv.Key, n)
		}
	}
	// Output:
	// fox=1
	// the=3
}
