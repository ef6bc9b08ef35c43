package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/gepeto/synth"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/trace"
)

// workload is one named benchmark input and the pipeline run over it.
type workload struct {
	name   string
	stages []stage
	// setup generates the corpus and deploys the cluster it runs on;
	// it is timed as a whole and its named parts are reported apart.
	setup func(b *bench) (*fixture, map[string]float64, error)
	// reference computes the digests a correct run reproduces for a
	// corpus that has no pinned reference.
	reference func(b *bench, fx *fixture, stages []stage) (map[string]string, error)
}

// stage is one operation of a pipeline: a call into a public stage
// function (timed), and an untimed check of its output.
type stage struct {
	name   string
	run    func(st *state) error
	digest func(st *state) (string, error)
}

// fixture is a set-up's result: the stored corpus and how to get a
// deployment to run a pipeline on.
type fixture struct {
	traces     int64
	inputBytes int64
	// refKey names the corpus in the reference file.
	refKey string
	input  []string
	// deploy returns the deployment one pipeline runs on, wired to the
	// tracer when tr is non-nil.
	deploy func(tr *tracer) (*deployment, error)
	close  func()
}

// deployment is what one pipeline runs against.
type deployment struct {
	fs     *dfs.FileSystem
	engine *mapreduce.Engine
	slots  int
	// rpcStats reads the RPC plane's own tallies (nil in-process).
	rpcStats func() (retries, dupCompletions int64)
	close    func()
}

// cleanup removes the run's work directory so the next run starts
// from the stored corpus alone.
func (d *deployment) cleanup() error { return d.fs.DeleteDir(workDir) }

const workDir = "work"

// state is one pipeline run's data: its deployment, the job results
// its stages recorded, and the stage outputs the checks read.
type state struct {
	b  *bench
	fx *fixture
	d  *deployment
	tr *tracer

	results    []*mapreduce.Result
	iterations []*mapreduce.Result // k-means iteration jobs (Table III)
	stageWalls map[string]time.Duration
	jobWalls   map[string]time.Duration // summed job walls per stage

	kmeans  *gepeto.KMeansResult
	dj      *gepeto.DJClusterResult
	pre     *trace.Dataset
	pois    []privacy.POI
	known   map[string]*privacy.MMC
	anon    map[string]*privacy.MMC
	linking *privacy.LinkingResult
}

func newState(b *bench, fx *fixture, d *deployment, tr *tracer) *state {
	return &state{b: b, fx: fx, d: d, tr: tr,
		stageWalls: map[string]time.Duration{},
		jobWalls:   map[string]time.Duration{},
	}
}

// addJobs records job results under the stage that ran them.
func (st *state) addJobs(stageName string, rs ...*mapreduce.Result) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		st.results = append(st.results, r)
		st.jobWalls[stageName] += r.Wall
	}
}

// runStage runs one stage under a deadline. A stage that misses it is
// abandoned (Go cannot cancel it) and reported as hung, which ends the
// measured loop.
func (st *state) runStage(s stage, deadline time.Duration) (err error, hung bool) {
	var span int
	if st.tr != nil {
		span = st.tr.beginStage(s.name)
	}
	done := make(chan error, 1) // the abandoned goroutine must not block
	start := time.Now()
	go func() { done <- s.run(st) }()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case err = <-done:
	case <-timer.C:
		err, hung = fmt.Errorf("missed its %v deadline", deadline), true
	}
	st.stageWalls[s.name] = time.Since(start)
	if st.tr != nil {
		st.tr.endStage(span)
	}
	return err, hung
}

var workloads = []*workload{
	{
		name:      "geolife-inference",
		stages:    []stage{kmeansStage(10, 0, false), samplingStage, djclusterStage, poiStage, mmcStage, linkStage},
		setup:     setupGeolifeInProcess,
		reference: referenceInProcess,
	},
	{
		name:      "synth-spill",
		stages:    []stage{kmeansStage(5, 64<<10, true)},
		setup:     setupSynth,
		reference: referenceInProcess,
	},
	{
		name:      "tcp-cluster",
		stages:    []stage{samplingStage, kmeansStage(10, 0, false)},
		setup:     setupGeolifeTCP,
		reference: referenceTCP,
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// kmeansOptions are the k-means settings of a stage: k=11 with the
// combiner on, and exactly iters iterations. KMeansOptions cannot turn
// the convergence test off: a delta <= 0 takes the 1e-4 default, and a
// round in which no centroid moves meets any positive delta, which
// stops a third of the GeoLife corpora before 10 iterations. No
// movement compares <= NaN, so a NaN delta runs every iteration.
func kmeansOptions(seed int64, iters int, shuffleBudget int64, compress bool) gepeto.KMeansOptions {
	return gepeto.KMeansOptions{
		K: 11, Distance: geo.MetricSquaredEuclidean,
		ConvergenceDelta: math.NaN(), MaxIter: iters,
		UseCombiner: true, Seed: seed,
		MaxShuffleBytes: shuffleBudget, CompressSpill: compress,
	}
}

func kmeansStage(iters int, shuffleBudget int64, compress bool) stage {
	return stage{
		name: "kmeans",
		run: func(st *state) error {
			opts := kmeansOptions(st.b.cfg.seed, iters, shuffleBudget, compress)
			res, err := gepeto.KMeansMR(st.d.engine, st.fx.input, workDir+"/kmeans", opts)
			if res != nil {
				st.addJobs("kmeans", res.IterationResults...)
				st.iterations = append(st.iterations, res.IterationResults...)
			}
			st.kmeans = res
			return err
		},
		digest: func(st *state) (string, error) {
			if st.kmeans.Iterations != iters {
				return "", fmt.Errorf("ran %d iterations, want exactly %d", st.kmeans.Iterations, iters)
			}
			if shuffleBudget > 0 && sumCounter(st.kmeans.IterationResults, mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillFiles) == 0 {
				return "", fmt.Errorf("the shuffle budget never tripped: no spill files")
			}
			return kmeansDigest(st.kmeans.Centroids, st.kmeans.Sizes, st.kmeans.Iterations), nil
		},
	}
}

// kindSampling names the §V sampling job for remote execution. The
// program registers only the k-means iteration kind; a worker binary
// that runs other jobs registers their kinds itself, as this one does
// for the workers it hosts.
const kindSampling = "perfbench/sampling"

func init() {
	mapreduce.RegisterKind(kindSampling, mapreduce.KindOf(gepeto.SamplingJob("", nil, "", time.Minute, gepeto.SampleUpperLimit)))
}

var samplingStage = stage{
	name: "sampling",
	run: func(st *state) error {
		job := gepeto.SamplingJob("sampling", st.fx.input, workDir+"/sampled", time.Minute, gepeto.SampleUpperLimit)
		job.Kind = kindSampling
		res, err := st.d.engine.Run(job)
		st.addJobs("sampling", res)
		return err
	},
	digest: func(st *state) (string, error) { return outputDigest(st.d.engine, workDir+"/sampled") },
}

var djclusterStage = stage{
	name: "djcluster",
	run: func(st *state) error {
		res, err := gepeto.DJClusterMR(st.d.engine, []string{workDir + "/sampled"}, workDir+"/dj", gepeto.DefaultDJClusterOptions())
		if res != nil {
			st.addJobs("djcluster", res.JobResults...)
		}
		st.dj = res
		return err
	},
	digest: func(st *state) (string, error) { return djDigest(st.d.engine, st.dj, workDir+"/dj") },
}

var poiStage = stage{
	name: "poi",
	run: func(st *state) error {
		pre, err := geolife.ReadRecords(st.d.fs, workDir+"/dj/preprocessed")
		if err != nil {
			return err
		}
		st.pre = pre
		st.pois, err = privacy.ExtractPOIs(st.dj, privacy.TraceTimes(pre))
		return err
	},
	digest: func(st *state) (string, error) { return poiDigest(st.pois), nil },
}

// mmcStage learns every user's Mobility Markov Chain twice, from the
// first and second time-halves of the preprocessed trail, the second
// under a pseudonym — the two sides of the §VIII linking attack.
var mmcStage = stage{
	name: "mmc",
	run: func(st *state) error {
		userPOIs := map[string][]geo.Point{}
		for _, p := range st.pois {
			userPOIs[p.User] = append(userPOIs[p.User], p.Center)
			userPOIs[pseudonym(p.User)] = append(userPOIs[pseudonym(p.User)], p.Center)
		}
		known, anon := &trace.Dataset{}, &trace.Dataset{}
		for _, tr := range st.pre.Trails {
			half := len(tr.Traces) / 2
			known.Trails = append(known.Trails, trace.Trail{User: tr.User, Traces: tr.Traces[:half]})
			renamed := make([]trace.Trace, 0, len(tr.Traces)-half)
			for _, t := range tr.Traces[half:] {
				t.User = pseudonym(tr.User)
				renamed = append(renamed, t)
			}
			anon.Trails = append(anon.Trails, trace.Trail{User: pseudonym(tr.User), Traces: renamed})
		}
		var err error
		if st.known, err = buildMMCs(st, known, "known", userPOIs); err != nil {
			return err
		}
		st.anon, err = buildMMCs(st, anon, "anon", userPOIs)
		return err
	},
	digest: func(st *state) (string, error) { return mmcDigest(st.known, st.anon), nil },
}

func pseudonym(user string) string { return "anon-" + user }

func buildMMCs(st *state, ds *trace.Dataset, side string, userPOIs map[string][]geo.Point) (map[string]*privacy.MMC, error) {
	in := workDir + "/mmc-" + side
	if err := geolife.WriteRecords(st.d.fs, in, ds); err != nil {
		return nil, err
	}
	chains, res, err := privacy.BuildMMCsMR(st.d.engine, []string{in}, in+"-out", userPOIs, 50)
	st.addJobs("mmc", res)
	return chains, err
}

var linkStage = stage{
	name: "link",
	run: func(st *state) error {
		known := sortedChains(st.known)
		anon := sortedChains(st.anon)
		truth := map[string]string{}
		for _, k := range known {
			truth[pseudonym(k.User)] = k.User
		}
		st.linking = privacy.LinkByMMC(known, anon, truth)
		if st.linking.Total != len(anon) {
			return fmt.Errorf("linked %d of %d pseudonymous chains", st.linking.Total, len(anon))
		}
		return nil
	},
	digest: func(st *state) (string, error) { return linkDigest(st.linking), nil },
}

func sortedChains(m map[string]*privacy.MMC) []*privacy.MMC {
	out := make([]*privacy.MMC, 0, len(m))
	for _, c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// geolifeChunk keeps the paper's 64 MB chunks per full-scale corpus:
// shrinking the corpus shrinks the chunk, so task counts stay those
// of the paper178 run.
func geolifeChunk(scale int) int64 {
	chunk := int64(64<<20) / int64(scale)
	if chunk < 64<<10 {
		chunk = 64 << 10
	}
	return chunk
}

// inProcess is the paper's 7-node × 4-slot testbed: in-process
// executors and the in-memory shuffle.
func inProcess(seed int64, chunk int64) (*cluster.Cluster, *dfs.FileSystem, error) {
	c, err := cluster.NewUniform(7, 2, 4)
	if err != nil {
		return nil, nil, err
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: chunk, Seed: seed})
	return c, fs, err
}

// inProcessFixture wraps a stored corpus on the in-process testbed.
// Untraced runs share one engine without observers; traced runs share
// one whose bus feeds the tracer.
func inProcessFixture(c *cluster.Cluster, fs *dfs.FileSystem, input []string) *fixture {
	plain := mapreduce.NewEngine(c, fs, mapreduce.Options{})
	var traced *mapreduce.Engine
	return &fixture{
		input: input,
		deploy: func(tr *tracer) (*deployment, error) {
			e := plain
			if tr != nil {
				if traced == nil {
					traced = mapreduce.NewEngine(c, fs, mapreduce.Options{Obs: tr.bus})
				}
				e = traced
			}
			return &deployment{fs: fs, engine: e, slots: c.TotalSlots(), close: func() {}}, nil
		},
		close: func() {},
	}
}

func geolifeKey(cfg config) string { return fmt.Sprintf("geolife/scale%d/seed%d", cfg.scale, cfg.seed) }

func setupGeolifeInProcess(b *bench) (*fixture, map[string]float64, error) {
	start := time.Now()
	ds := geolife.Generate(geolife.Scaled(b.cfg.seed, b.cfg.scale))
	generated := time.Now()
	c, fs, err := inProcess(b.cfg.seed, geolifeChunk(b.cfg.scale))
	if err != nil {
		return nil, nil, err
	}
	if err := geolife.WriteRecordsConcat(fs, "data", ds, 2); err != nil {
		return nil, nil, err
	}
	parts := map[string]float64{
		"geolife.generate_s": generated.Sub(start).Seconds(),
		"geolife.upload_s":   time.Since(generated).Seconds(),
	}
	fx := inProcessFixture(c, fs, []string{"data"})
	fx.traces, fx.inputBytes, fx.refKey = int64(ds.NumTraces()), dirBytes(fs, "data"), geolifeKey(b.cfg)
	return fx, parts, nil
}

func setupSynth(b *bench) (*fixture, map[string]float64, error) {
	c, fs, err := inProcess(b.cfg.seed, 4<<20)
	if err != nil {
		return nil, nil, err
	}
	stats, err := synth.ToDFS(fs, "synth", synth.Options{
		Users: b.cfg.synthUsers, TracesPerUser: 8, Seed: b.cfg.seed, TemplateUsers: 8,
	})
	if err != nil {
		return nil, nil, err
	}
	parts := map[string]float64{
		"synth.fit_s":      stats.FitWall.Seconds(),
		"synth.generate_s": stats.GenWall.Seconds(),
	}
	fx := inProcessFixture(c, fs, []string{"synth"})
	fx.traces, fx.inputBytes = stats.Traces, stats.Bytes
	fx.refKey = fmt.Sprintf("synth/users%d/seed%d", b.cfg.synthUsers, b.cfg.seed)
	return fx, parts, nil
}

// setupGeolifeTCP generates the geolife-inference corpus and times one
// deployment of it, which it then closes. Every pipeline runs on a
// deployment of its own, as `gepeto jobtracker` deploys per job.
func setupGeolifeTCP(b *bench) (*fixture, map[string]float64, error) {
	start := time.Now()
	ds := geolife.Generate(geolife.Scaled(b.cfg.seed, b.cfg.scale))
	generated := time.Now()
	d, uploadWall, err := deployTCP(b, ds, nil)
	if err != nil {
		return nil, nil, err
	}
	parts := map[string]float64{
		"geolife.generate_s": generated.Sub(start).Seconds(),
		"geolife.upload_s":   uploadWall.Seconds(),
	}
	inputBytes := dirBytes(d.fs, "data")
	d.close()
	fx := &fixture{
		traces: int64(ds.NumTraces()), inputBytes: inputBytes,
		refKey: geolifeKey(b.cfg), input: []string{"data"},
		deploy: func(tr *tracer) (*deployment, error) {
			d, _, err := deployTCP(b, ds, tr)
			return d, err
		},
		close: func() {},
	}
	return fx, parts, nil
}

// deployTCP brings up a jobtracker and one worker per CPU, each a
// 4-slot node talking over loopback TCP, then uploads the corpus
// (timed apart). A traced deployment routes every RPC through the
// tracer's timing transport and every event onto its bus.
func deployTCP(b *bench, ds *trace.Dataset, tr *tracer) (*deployment, time.Duration, error) {
	nodes := runtime.NumCPU()
	c, err := cluster.NewUniform(nodes, 1, 4)
	if err != nil {
		return nil, 0, err
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: geolifeChunk(b.cfg.scale), Seed: b.cfg.seed})
	if err != nil {
		return nil, 0, err
	}
	var transport rpc.Transport = &rpc.TCPNetwork{}
	var bus *obs.Bus
	if tr != nil {
		transport, bus = tr.transport(transport), tr.bus
	}
	jt := rpc.NewJobtracker(rpc.JobtrackerConfig{Cluster: c, FS: fs, Obs: bus, Transport: transport})
	var (
		wg        sync.WaitGroup
		listeners []net.Listener
		workers   []*rpc.Worker
		mu        sync.Mutex
		runErrs   []error
	)
	closeAll := func() {
		jt.ShutdownWorkers()
		for _, w := range workers {
			w.Stop()
		}
		jt.Stop()
		for _, ln := range listeners {
			ln.Close()
		}
		wg.Wait()
	}
	listen := func() (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			listeners = append(listeners, ln)
		}
		return ln, err
	}
	serve := func(ln net.Listener, srv *rpc.Server) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = rpc.Serve(ln, srv) // returns once the listener closes
		}()
	}
	jtLn, err := listen()
	if err != nil {
		closeAll()
		return nil, 0, err
	}
	serve(jtLn, jt.Server())
	for _, n := range c.Nodes() {
		ln, err := listen()
		if err != nil {
			closeAll()
			return nil, 0, err
		}
		w := rpc.NewWorker(rpc.WorkerConfig{
			Node: n.ID, Slots: n.Slots, Transport: transport,
			JobtrackerAddr: jtLn.Addr().String(), Addr: ln.Addr().String(),
		})
		workers = append(workers, w)
		serve(ln, w.Server())
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := w.Run(); err != nil {
				mu.Lock()
				runErrs = append(runErrs, fmt.Errorf("worker %s: %w", id, err))
				mu.Unlock()
			}
		}(n.ID)
	}
	if err := jt.WaitForWorkers(nodes, 10*time.Second); err != nil {
		closeAll()
		mu.Lock()
		defer mu.Unlock()
		return nil, 0, errors.Join(append([]error{err}, runErrs...)...)
	}
	start := time.Now()
	if err := geolife.WriteRecordsConcat(fs, "data", ds, 2); err != nil {
		closeAll()
		return nil, 0, err
	}
	upload := time.Since(start)
	d := &deployment{
		fs:     fs,
		engine: mapreduce.NewEngine(c, fs, mapreduce.Options{Executor: jt.Executor(), Obs: bus}),
		slots:  c.TotalSlots(),
		rpcStats: func() (retries, dups int64) {
			for _, w := range workers {
				for _, p := range w.Registry().Snapshot() {
					if p.Name == "rpc_complete_retries_total" || p.Name == "rpc_store_retries_total" {
						retries += p.Value
					}
				}
			}
			return retries, jt.DupCompletions()
		},
		close: closeAll,
	}
	return d, upload, nil
}

func dirBytes(fs *dfs.FileSystem, dir string) int64 {
	var total int64
	for _, f := range fs.List(dir) {
		if sz, err := fs.Size(f); err == nil {
			total += sz
		}
	}
	return total
}

func sumCounter(rs []*mapreduce.Result, group, name string) int64 {
	var n int64
	for _, r := range rs {
		n += r.Counters.Value(group, name)
	}
	return n
}
