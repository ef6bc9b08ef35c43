package gepeto

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/geolife"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/recordio"
	"repro/internal/trace"
)

// newImportEngine is a 6-node engine over 64 KiB chunks holding one
// 3-user corpus three ways: text records under "text", the same files
// with CRLF line endings under "crlf", and binary RCIO traces under
// "rcio" (one file per user each, in the same order).
func newImportEngine(t *testing.T, opts mapreduce.Options) *mapreduce.Engine {
	t.Helper()
	c, err := cluster.NewUniform(6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 64 << 10, Replication: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := geolife.Generate(geolife.Config{Users: 3, TotalTraces: 9000, Seed: 11})
	if err := geolife.WriteRecords(fs, "text", ds); err != nil {
		t.Fatal(err)
	}
	for i, f := range fs.List("text") {
		data, err := fs.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		crlf := strings.ReplaceAll(string(data), "\n", "\r\n")
		if err := fs.Create(fmt.Sprintf("crlf/%03d.rec", i), []byte(crlf), ""); err != nil {
			t.Fatal(err)
		}
		w := recordio.NewWriter()
		err = geolife.ScanTraces(data, func(tr trace.Trace) error {
			w.Add("", string(recordio.TraceValue{}.Append(nil, tr)))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Create(fmt.Sprintf("rcio/%03d.rcio", i), w.Bytes(), ""); err != nil {
			t.Fatal(err)
		}
	}
	return mapreduce.NewEngine(c, fs, opts)
}

// requireSameKMeans fails unless two runs agree bit for bit: centroid
// float64 bits, cluster sizes, iteration count and convergence.
func requireSameKMeans(t *testing.T, what string, want, got *KMeansResult) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: %d iterations (converged %v), want %d (%v)", what,
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: %d centroids, want %d", what, len(got.Centroids), len(want.Centroids))
	}
	for i := range want.Centroids {
		a, b := want.Centroids[i], got.Centroids[i]
		if math.Float64bits(a.Lat) != math.Float64bits(b.Lat) || math.Float64bits(a.Lon) != math.Float64bits(b.Lon) {
			t.Fatalf("%s: centroid %d = %v, want %v", what, i, b, a)
		}
	}
	if fmt.Sprint(got.Sizes) != fmt.Sprint(want.Sizes) {
		t.Fatalf("%s: sizes %v, want %v", what, got.Sizes, want.Sizes)
	}
}

// TestKMeansMRInputFormsAgree runs k-means, for both seeding methods,
// over the text, CRLF and RCIO forms of one corpus, in memory and
// under a spilling, compressed shuffle: every run reads the same
// imported points, so every result is identical, and no run leaves
// its points behind.
func TestKMeansMRInputFormsAgree(t *testing.T) {
	e := newImportEngine(t, mapreduce.Options{})
	for _, plusPlus := range []bool{false, true} {
		base := KMeansOptions{K: 4, MaxIter: 8, UseCombiner: true, Seed: 3, PlusPlusInit: plusPlus}
		spill := base
		spill.MaxShuffleBytes, spill.CompressSpill = 1<<10, true
		var want *KMeansResult
		for _, input := range []string{"text", "crlf", "rcio"} {
			for _, o := range []KMeansOptions{base, spill} {
				what := fmt.Sprintf("plusPlus=%v input=%s spill=%v", plusPlus, input, o.MaxShuffleBytes > 0)
				res, err := KMeansMR(e, []string{input}, "w", o)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if left := e.FS().List("w"); len(left) != 0 {
					t.Fatalf("%s: work directory not cleaned: %v", what, left)
				}
				if o.MaxShuffleBytes > 0 {
					spilled := res.IterationResults[0].Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillFiles)
					if spilled == 0 {
						t.Fatalf("%s: the budgeted run did not spill", what)
					}
				}
				if want == nil {
					want = res
					continue
				}
				requireSameKMeans(t, what, want, res)
			}
		}
	}
}

// TestKMeansMRRemovesPointsOnFailure fails every attempt of the first
// iteration's first map task: KMeansMR returns the error and leaves no
// imported points behind.
func TestKMeansMRRemovesPointsOnFailure(t *testing.T) {
	e := newImportEngine(t, mapreduce.Options{
		FailureHook: func(taskID string, attempt int, node string) error {
			if taskID == "map-0000" {
				return errors.New("injected failure")
			}
			return nil
		},
	})
	_, err := KMeansMR(e, []string{"text"}, "w", KMeansOptions{K: 4, MaxIter: 3, Seed: 3})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want the injected task failure", err)
	}
	if left := e.FS().List("w/points"); len(left) != 0 {
		t.Fatalf("points left behind after a failed run: %v", left)
	}
}

// TestKMeansMRInitSpan checks the initialization scan is its own span
// under the k-means span, before the first iteration job, ending with
// the files, records and bytes it wrote.
func TestKMeansMRInitSpan(t *testing.T) {
	var mu sync.Mutex
	var events []obs.Event
	bus := obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	}))
	e := newImportEngine(t, mapreduce.Options{Obs: bus})
	if _, err := KMeansMR(e, []string{"text"}, "w", KMeansOptions{K: 4, MaxIter: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	trees := obstrace.Assemble(events)
	mu.Unlock()
	if len(trees) != 1 || trees[0].Root.Name != "kmeans:w" {
		t.Fatalf("want one kmeans:w tree, got %d", len(trees))
	}
	kids := trees[0].Root.Children
	if len(kids) < 2 || kids[0].Name != "kmeans-init:w/points" || kids[1].Name != "kmeans-iter-000" {
		t.Fatalf("k-means span children do not start with the init span and the first iteration: %+v", kids)
	}
	scan := kids[0]
	// 9000 points of 18 framed bytes plus a header and sync markers per file.
	if scan.Status != obstrace.StatusSucceeded || !strings.HasPrefix(scan.Detail, "files=3 records=9000 bytes=") {
		t.Fatalf("init span status %q detail %q", scan.Status, scan.Detail)
	}
	if scan.EndUs > kids[1].StartUs {
		t.Fatalf("init span ends at %dus, after the first iteration starts at %dus", scan.EndUs, kids[1].StartUs)
	}
	if scan.Kind != obstrace.KindPipeline {
		t.Fatalf("init span kind %q", scan.Kind)
	}
}
