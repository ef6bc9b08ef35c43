// End-to-end tests of the out-of-process backend: the same jobs run
// once on the in-process executor and once through the jobtracker with
// real (goroutine-hosted) worker loops over a gob-encoding network, and
// the outputs must match byte for byte. The workers here are the exact
// Worker used by `gepeto worker`; only the transport is in-memory.
package rpc_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
	"repro/internal/trace"
)

// Test job kinds, registered once per binary — the worker goroutines
// share this registry with the driver, exactly as a worker binary
// importing the same package would.
const (
	kindWordCount = "rpctest/wordcount"
	kindUpper     = "rpctest/upper-maponly"
	kindFlaky     = "rpctest/wordcount-flaky-cleanup"
)

// strJob is the all-string job shape of these tests: RawString codecs
// at every position.
type (
	strJob  = mapreduce.TypedJob[string, string, string, string, string, string]
	strEmit = mapreduce.TypedEmit[string, string]
)

func wcMap(ctx *mapreduce.TaskContext, _, value string, emit strEmit) error {
	for _, w := range strings.Fields(value) {
		ctx.Counter("rpctest", "words").Inc(1)
		emit(w, "1")
	}
	return nil
}

func sumReduce(_ *mapreduce.TaskContext, key string, values []string, emit strEmit) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		total += n
	}
	emit(key, strconv.Itoa(total))
	return nil
}

// flakyCleanupMapper is wcMap whose first attempt of map-0000 fails in
// Cleanup, after every per-word counter tick has landed.
type flakyCleanupMapper struct {
	mapreduce.TypedMapperBase[string, string]
}

func (flakyCleanupMapper) Map(ctx *mapreduce.TaskContext, key, value string, emit strEmit) error {
	return wcMap(ctx, key, value, emit)
}

func (flakyCleanupMapper) Cleanup(ctx *mapreduce.TaskContext, _ strEmit) error {
	if ctx.TaskID == "map-0000" && ctx.Attempt == 0 {
		return fmt.Errorf("injected cleanup failure")
	}
	return nil
}

func upperMap(_ *mapreduce.TaskContext, _, value string, emit strEmit) error {
	emit(strings.ToUpper(value), value)
	return nil
}

func mapperOf(f mapreduce.TypedMapFunc[string, string, string, string]) func() mapreduce.TypedMapper[string, string, string, string] {
	return func() mapreduce.TypedMapper[string, string, string, string] { return f }
}

func sumReducer() mapreduce.TypedReducer[string, string, string, string] {
	return mapreduce.TypedReduceFunc[string, string, string, string](sumReduce)
}

// testJob is the typed template every test job here is built from:
// text lines under "in", records under "out", three reducers unless
// the job is map-only.
func testJob(name, kind string, m func() mapreduce.TypedMapper[string, string, string, string], r func() mapreduce.TypedReducer[string, string, string, string]) *strJob {
	raw := recordio.RawString{}
	return &strJob{
		Name: name, Kind: kind, InputPaths: []string{"in"}, OutputPath: "out",
		Mapper: m, Reducer: r,
		InputKey: raw, InputValue: raw, MapKey: raw, MapValue: raw, OutputKey: raw, OutputValue: raw,
		NumReducers: 3,
	}
}

// wordCountJob builds the job both backends run. The in-process run
// uses its lowered functions; the RPC run ships the Kind, whose
// template registered the same functions.
func wordCountJob(withCombiner bool) *mapreduce.Job {
	tj := testJob("rpc-wordcount", kindWordCount, mapperOf(wcMap), sumReducer)
	if withCombiner {
		tj.Combiner = sumReducer
	}
	return tj.Build()
}

func flakyJob() *mapreduce.Job {
	return testJob("rpc-flaky-wordcount", kindFlaky,
		func() mapreduce.TypedMapper[string, string, string, string] { return flakyCleanupMapper{} },
		sumReducer).Build()
}

func upperJob() *mapreduce.Job {
	return testJob("rpc-upper", kindUpper, mapperOf(upperMap), nil).Build()
}

func init() {
	mapreduce.RegisterKind(kindWordCount, mapreduce.KindOf(wordCountJob(true)))
	mapreduce.RegisterKind(kindUpper, mapreduce.KindOf(upperJob()))
	mapreduce.RegisterKind(kindFlaky, mapreduce.KindOf(flakyJob()))
}

// newTopology builds one 3-node cluster + DFS; calling it twice yields
// bit-identical topologies, so an in-process and an RPC run see the
// same splits, placement and slot counts.
func newTopology(t *testing.T, chunk int64) (*cluster.Cluster, *dfs.FileSystem) {
	t.Helper()
	c, err := cluster.NewUniform(3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Replication 3 on 3 nodes: every chunk survives any single node
	// loss, so kill drills never turn into data loss.
	fs, err := dfs.New(c, dfs.Config{ChunkSize: chunk, Replication: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c, fs
}

// backendOpts tunes the harness; zero values give a healthy cluster.
type backendOpts struct {
	grace        time.Duration // jobtracker heartbeat grace
	heartbeat    time.Duration // worker heartbeat period
	taskOverhead time.Duration // per-task sleep, to stretch runs for fault drills
	// jtTransport / workerTransport wrap the jobtracker's or one
	// worker's view of the network (e.g. in an Unreliable).
	jtTransport     func(inner rpc.Transport) rpc.Transport
	workerTransport func(node string, inner rpc.Transport) rpc.Transport
	// jtConfig / workerConfig adjust the final configs before the
	// processes start (observability wiring, clock skew).
	jtConfig     func(cfg *rpc.JobtrackerConfig)
	workerConfig func(node string, cfg *rpc.WorkerConfig)
}

// backend is a full multi-worker deployment on a MemNetwork.
type backend struct {
	net     *rpc.MemNetwork
	jt      *rpc.Jobtracker
	workers []*rpc.Worker
	done    []chan error
}

const jtAddr = "jt"

// startBackend stands up a jobtracker plus one worker loop per cluster
// node and waits until all have registered.
func startBackend(t *testing.T, c *cluster.Cluster, fs *dfs.FileSystem, o backendOpts) *backend {
	t.Helper()
	n := rpc.NewMemNetwork()
	jtTr := rpc.Transport(n)
	if o.jtTransport != nil {
		jtTr = o.jtTransport(n)
	}
	jtCfg := rpc.JobtrackerConfig{
		Cluster: c, FS: fs, Transport: jtTr, HeartbeatGrace: o.grace,
	}
	if o.jtConfig != nil {
		o.jtConfig(&jtCfg)
	}
	jt := rpc.NewJobtracker(jtCfg)
	n.Bind(jtAddr, jt.Server())
	b := &backend{net: n, jt: jt}
	hb := o.heartbeat
	if hb == 0 {
		hb = 50 * time.Millisecond
	}
	for _, node := range c.Nodes() {
		wTr := rpc.Transport(n)
		if o.workerTransport != nil {
			wTr = o.workerTransport(node.ID, n)
		}
		addr := "worker:" + node.ID
		wCfg := rpc.WorkerConfig{
			Node: node.ID, Slots: node.Slots,
			Transport: wTr, JobtrackerAddr: jtAddr, Addr: addr,
			HeartbeatEvery: hb, TaskOverhead: o.taskOverhead,
		}
		if o.workerConfig != nil {
			o.workerConfig(node.ID, &wCfg)
		}
		w := rpc.NewWorker(wCfg)
		n.Bind(addr, w.Server())
		done := make(chan error, 1)
		go func(w *rpc.Worker) { done <- w.Run() }(w)
		b.workers = append(b.workers, w)
		b.done = append(b.done, done)
	}
	if err := jt.WaitForWorkers(len(b.workers), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.stop)
	return b
}

func (b *backend) stop() {
	b.jt.ShutdownWorkers()
	for _, w := range b.workers {
		w.Stop()
	}
	for _, d := range b.done {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
		}
	}
	b.jt.Stop()
}

// engine returns an Engine whose every task attempt runs on a worker.
func (b *backend) engine(c *cluster.Cluster, fs *dfs.FileSystem) *mapreduce.Engine {
	return mapreduce.NewEngine(c, fs, mapreduce.Options{Executor: b.jt.Executor()})
}

// readOutputBytes snapshots an output directory as path → raw bytes.
func readOutputBytes(t *testing.T, fs *dfs.FileSystem, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, p := range fs.List(dir) {
		data, err := fs.ReadAll(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		out[p] = data
	}
	if len(out) == 0 {
		t.Fatalf("no output files under %s", dir)
	}
	return out
}

func assertSameOutput(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("output file count: in-process %d, rpc %d", len(want), len(got))
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			t.Fatalf("rpc output missing %s", p)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s differs: in-process %d bytes, rpc %d bytes", p, len(w), len(g))
		}
	}
}

// seedWordInput writes deterministic multi-chunk text input.
func seedWordInput(t *testing.T, fs *dfs.FileSystem, lines int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "alpha bravo charlie%d delta echo foxtrot golf hotel india juliet\n", i%7)
	}
	if err := fs.Create("in/text", []byte(sb.String()), ""); err != nil {
		t.Fatal(err)
	}
}

// runBoth runs the same job on a fresh in-process topology and on a
// fresh RPC-backed topology (identical input), returning both results
// and both output snapshots.
func runBoth(t *testing.T, job func() *mapreduce.Job, seed func(t *testing.T, fs *dfs.FileSystem), o backendOpts) (local, remote *mapreduce.Result, localOut, remoteOut map[string][]byte, b *backend) {
	t.Helper()
	chunk := int64(256)

	cA, fsA := newTopology(t, chunk)
	seed(t, fsA)
	engA := mapreduce.NewEngine(cA, fsA, mapreduce.Options{})
	jobA := job()
	resA, err := engA.Run(jobA)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	cB, fsB := newTopology(t, chunk)
	seed(t, fsB)
	b = startBackend(t, cB, fsB, o)
	jobB := job()
	resB, err := b.engine(cB, fsB).Run(jobB)
	if err != nil {
		t.Fatalf("rpc run: %v", err)
	}
	return resA, resB, readOutputBytes(t, fsA, jobA.OutputPath), readOutputBytes(t, fsB, jobB.OutputPath), b
}

func TestRPCBackendMatchesInProcess(t *testing.T) {
	local, remote, localOut, remoteOut, _ := runBoth(t,
		func() *mapreduce.Job { return wordCountJob(true) },
		func(t *testing.T, fs *dfs.FileSystem) { seedWordInput(t, fs, 60) },
		backendOpts{})
	assertSameOutput(t, localOut, remoteOut)
	if local.MapTasks != remote.MapTasks || local.ReduceTasks != remote.ReduceTasks {
		t.Fatalf("task counts differ: in-process %d/%d, rpc %d/%d",
			local.MapTasks, local.ReduceTasks, remote.MapTasks, remote.ReduceTasks)
	}
	// User counters cross the wire and merge winner-only; with no
	// faults they match the in-process totals exactly.
	lw := local.Counters.Value("rpctest", "words")
	rw := remote.Counters.Value("rpctest", "words")
	if lw == 0 || lw != rw {
		t.Fatalf("user counter words: in-process %d, rpc %d", lw, rw)
	}
}

// TestUserCountersWinnerOnly runs a job whose first map attempt fails
// after ticking its user counters: on both backends only the winning
// attempt's ticks reach the job total.
func TestUserCountersWinnerOnly(t *testing.T) {
	const lines = 60
	local, remote, localOut, remoteOut, _ := runBoth(t,
		flakyJob,
		func(t *testing.T, fs *dfs.FileSystem) { seedWordInput(t, fs, lines) },
		backendOpts{})
	assertSameOutput(t, localOut, remoteOut)
	const want = lines * 10 // seedWordInput writes ten words a line
	for name, res := range map[string]*mapreduce.Result{"in-process": local, "rpc": remote} {
		failed := 0
		for _, a := range res.Attempts {
			if a.Status == "failed" {
				failed++
			}
		}
		if failed != 1 {
			t.Errorf("%s: %d failed attempts, want 1", name, failed)
		}
		if n := res.Counters.Value("rpctest", "words"); n != want {
			t.Errorf("%s: user counter words = %d, want %d (winner only)", name, n, want)
		}
	}
}

func TestRPCBackendMapOnly(t *testing.T) {
	_, _, localOut, remoteOut, _ := runBoth(t, upperJob,
		func(t *testing.T, fs *dfs.FileSystem) { seedWordInput(t, fs, 40) },
		backendOpts{})
	assertSameOutput(t, localOut, remoteOut)
}

func TestRPCBackendWithSpillBudget(t *testing.T) {
	// A tiny explicit budget forces multi-run spills on both backends;
	// the merged output must still be identical.
	job := func() *mapreduce.Job {
		j := wordCountJob(true)
		j.MaxShuffleBytes = 128
		return j
	}
	_, remote, localOut, remoteOut, _ := runBoth(t, job,
		func(t *testing.T, fs *dfs.FileSystem) { seedWordInput(t, fs, 60) },
		backendOpts{})
	assertSameOutput(t, localOut, remoteOut)
	if n := remote.Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillFiles); n == 0 {
		t.Fatal("rpc run spilled no files despite a 128-byte budget")
	}
}

func TestRPCBackendUnregisteredKindFailsAtSubmit(t *testing.T) {
	c, fs := newTopology(t, 256)
	seedWordInput(t, fs, 5)
	b := startBackend(t, c, fs, backendOpts{})
	j := wordCountJob(false)
	j.Kind = "rpctest/never-registered"
	if _, err := b.engine(c, fs).Run(j); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v, want kind-not-registered at submission", err)
	}
}

// seedKMeansForms uploads one corpus as text records under "text" and
// as binary RCIO traces under "rcio", one file per user each.
func seedKMeansForms(t *testing.T, fs *dfs.FileSystem) {
	t.Helper()
	ds := geolife.Generate(geolife.Config{Users: 4, TotalTraces: 1500, Seed: 5})
	if err := geolife.WriteRecords(fs, "text", ds); err != nil {
		t.Fatal(err)
	}
	for i, f := range fs.List("text") {
		data, err := fs.ReadAll(f)
		if err != nil {
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
}

// TestKMeansRPCMatchesInProcess runs k-means over the text and RCIO
// forms of one corpus, with uniform and ++ seeding, with and without a
// spilling compressed shuffle, in-process and through the RPC backend.
// The iterations read the points the driver imported, so all runs of
// one seeding method agree bit for bit, and none leaves its points.
func TestKMeansRPCMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-iteration k-means runs over the gob transport")
	}
	chunk := int64(8 << 10)
	cA, fsA := newTopology(t, chunk)
	seedKMeansForms(t, fsA)
	local := mapreduce.NewEngine(cA, fsA, mapreduce.Options{})
	cB, fsB := newTopology(t, chunk)
	seedKMeansForms(t, fsB)
	remote := startBackend(t, cB, fsB, backendOpts{}).engine(cB, fsB)

	bits := func(r *gepeto.KMeansResult) string {
		var sb strings.Builder
		for _, c := range r.Centroids {
			fmt.Fprintf(&sb, "%016x,%016x ", math.Float64bits(c.Lat), math.Float64bits(c.Lon))
		}
		return fmt.Sprintf("%s sizes=%v iterations=%d converged=%v", sb.String(), r.Sizes, r.Iterations, r.Converged)
	}
	for _, plusPlus := range []bool{false, true} {
		want := ""
		for _, input := range []string{"text", "rcio"} {
			for _, spill := range []bool{false, true} {
				opts := gepeto.KMeansOptions{
					K: 4, Distance: geo.MetricSquaredEuclidean, MaxIter: 3,
					UseCombiner: true, Seed: 1, PlusPlusInit: plusPlus,
				}
				if spill {
					opts.MaxShuffleBytes, opts.CompressSpill = 512, true
				}
				for _, side := range []struct {
					name string
					e    *mapreduce.Engine
				}{{"in-process", local}, {"rpc", remote}} {
					what := fmt.Sprintf("plusPlus=%v input=%s spill=%v %s", plusPlus, input, spill, side.name)
					res, err := gepeto.KMeansMR(side.e, []string{input}, "work", opts)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if left := side.e.FS().List("work/points"); len(left) != 0 {
						t.Fatalf("%s: points left behind: %v", what, left)
					}
					// Remote map tasks always write their runs to files.
					spilled := res.IterationResults[0].Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillFiles)
					if spill && spilled == 0 {
						t.Fatalf("%s: the budgeted run did not spill", what)
					}
					got := bits(res)
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("%s:\n got  %s\n want %s", what, got, want)
					}
				}
			}
		}
	}
}

// TestKMeansRPCTwiceOnOneDeployment runs the same k-means twice on one
// live deployment. Its iteration jobs repeat their names
// (kmeans-iter-000, ...), so the second run's attempts reach the
// workers under the same job name, task and attempt number as the
// first run's; both runs must still execute and match in-process.
func TestKMeansRPCTwiceOnOneDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-iteration k-means runs over the gob transport")
	}
	ds := geolife.Generate(geolife.Config{Users: 4, TotalTraces: 1500, Seed: 5})
	opts := gepeto.KMeansOptions{
		K: 4, Distance: geo.MetricSquaredEuclidean, ConvergenceDelta: 1e-4,
		MaxIter: 3, UseCombiner: true, Seed: 1,
	}
	chunk := int64(64 << 10)
	cA, fsA := newTopology(t, chunk)
	if err := geolife.WriteRecords(fsA, "input", ds); err != nil {
		t.Fatal(err)
	}
	want, err := gepeto.KMeansMR(mapreduce.NewEngine(cA, fsA, mapreduce.Options{}), []string{"input"}, "work", opts)
	if err != nil {
		t.Fatalf("in-process k-means: %v", err)
	}

	cB, fsB := newTopology(t, chunk)
	if err := geolife.WriteRecords(fsB, "input", ds); err != nil {
		t.Fatal(err)
	}
	b := startBackend(t, cB, fsB, backendOpts{})
	eng := b.engine(cB, fsB)
	for run := 1; run <= 2; run++ {
		type outcome struct {
			res *gepeto.KMeansResult
			err error
		}
		done := make(chan outcome, 1)
		go func(workDir string) {
			res, err := gepeto.KMeansMR(eng, []string{"input"}, workDir, opts)
			done <- outcome{res, err}
		}(fmt.Sprintf("work-%d", run))
		var got outcome
		select {
		case got = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("rpc k-means run %d did not finish within 60s", run)
		}
		if got.err != nil {
			t.Fatalf("rpc k-means run %d: %v", run, got.err)
		}
		if got.res.Iterations != want.Iterations || got.res.Converged != want.Converged ||
			!reflect.DeepEqual(got.res.Centroids, want.Centroids) || !reflect.DeepEqual(got.res.Sizes, want.Sizes) {
			t.Fatalf("rpc run %d differs from in-process:\n in-process %d/%v %v %v\n rpc        %d/%v %v %v", run,
				want.Iterations, want.Converged, want.Centroids, want.Sizes,
				got.res.Iterations, got.res.Converged, got.res.Centroids, got.res.Sizes)
		}
	}
}
