package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestMergeRunsEmptyAndSingle(t *testing.T) {
	if got := MergeRuns(nil); got != nil {
		t.Fatalf("MergeRuns(nil) = %v", got)
	}
	if got := MergeRuns([][]KV{{}, nil, {}}); got != nil {
		t.Fatalf("MergeRuns(empties) = %v", got)
	}
	run := []KV{{"a", "1"}, {"b", "2"}}
	got := MergeRuns([][]KV{nil, run, {}})
	if !reflect.DeepEqual(got, run) {
		t.Fatalf("single-run merge = %v, want %v", got, run)
	}
}

func TestMergeRunsInterleaves(t *testing.T) {
	r1 := []KV{{"a", "1"}, {"c", "1"}, {"e", "1"}}
	r2 := []KV{{"b", "2"}, {"d", "2"}}
	r3 := []KV{{"a", "3"}, {"f", "3"}}
	got := MergeRuns([][]KV{r1, r2, r3})
	want := []KV{{"a", "1"}, {"a", "3"}, {"b", "2"}, {"c", "1"}, {"d", "2"}, {"e", "1"}, {"f", "3"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
}

func TestMergeRunsStableAcrossRuns(t *testing.T) {
	// Equal keys must come out in run order, and within a run in the
	// run's own order — the order the seed's concat + stable sort gave.
	r1 := []KV{{"k", "r1-a"}, {"k", "r1-b"}}
	r2 := []KV{{"k", "r2-a"}}
	r3 := []KV{{"k", "r3-a"}, {"k", "r3-b"}}
	got := MergeRuns([][]KV{r1, r2, r3})
	want := []KV{{"k", "r1-a"}, {"k", "r1-b"}, {"k", "r2-a"}, {"k", "r3-a"}, {"k", "r3-b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
}

func TestGroupIterGroupsSortedStream(t *testing.T) {
	in := []KV{{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"c", "5"}, {"c", "6"}}
	g := newGroupIter(newMergeIter(nil, []run{{mem: in}}, nil))
	type group struct {
		key    string
		values []string
	}
	var got []group
	for {
		k, vs, ok := g.next()
		if !ok {
			break
		}
		// values is only valid until the next call: keep a copy.
		got = append(got, group{k, append([]string(nil), vs...)})
	}
	want := []group{{"a", []string{"1", "2"}}, {"b", []string{"3"}}, {"c", []string{"4", "5", "6"}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

// TestGroupIterReusesValues pins that grouping a many-group stream
// reuses one values slice instead of allocating one per group.
func TestGroupIterReusesValues(t *testing.T) {
	const groups = 1000
	in := make([]KV, 0, 3*groups)
	for k := 0; k < groups; k++ {
		for v := 0; v < 3; v++ {
			in = append(in, KV{Key: fmt.Sprintf("k%04d", k), Value: "v"})
		}
	}
	var seen int
	allocs := testing.AllocsPerRun(5, func() {
		seen = 0
		g := newGroupIter(newMergeIter(nil, []run{{mem: in}}, nil))
		for _, vs, ok := g.next(); ok; _, vs, ok = g.next() {
			seen += len(vs)
		}
	})
	if seen != len(in) {
		t.Fatalf("grouped %d values, want %d", seen, len(in))
	}
	if allocs > groups/100 {
		t.Fatalf("%.0f allocations for %d groups: the values slice is not reused", allocs, groups)
	}
}

func TestGroupIterEmpty(t *testing.T) {
	g := newGroupIter(newMergeIter(nil, nil, nil))
	if _, _, ok := g.next(); ok {
		t.Fatal("empty stream yielded a group")
	}
}

// randomRuns builds runs in emission order (unsorted) from a small key
// alphabet so keys collide across runs.
func randomRuns(rng *rand.Rand, maxRuns int) [][]KV {
	runs := make([][]KV, 1+rng.Intn(maxRuns))
	seq := 0
	for i := range runs {
		n := rng.Intn(40) // some runs stay empty
		for j := 0; j < n; j++ {
			runs[i] = append(runs[i], KV{
				Key:   fmt.Sprintf("k%02d", rng.Intn(12)),
				Value: fmt.Sprintf("v%04d", seq),
			})
			seq++
		}
	}
	return runs
}

// seedShuffle is the seed engine's shuffle semantics kept as a test
// reference: concatenate the unsorted runs in run order, then stable-
// sort the whole partition by key.
func seedShuffle(runs [][]KV) []KV {
	var all []KV
	for _, r := range runs {
		all = append(all, r...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	return all
}

func TestMergeRunsMatchesSeedShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		runs := randomRuns(rng, 8)
		want := seedShuffle(runs)
		sorted := make([][]KV, len(runs))
		for i, r := range runs {
			sorted[i] = append([]KV(nil), r...)
			sortRun(sorted[i], nil)
		}
		got := MergeRuns(sorted)
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("iter %d: merge of empties = %v", iter, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: merge diverges from seed shuffle\n got %v\nwant %v", iter, got, want)
		}
	}
}
