// Command perfbench is the repository's benchmark: it runs one named
// GEPETO workload as a closed loop with a single client (one pipeline
// at a time, each waiting for the previous to finish), checks every
// stage's output against a reference, and prints the end-to-end
// metrics — or, with -trace 1, the per-layer metrics — as one JSON
// object on the last line of standard output.
//
// Run it from the repository root through the launcher, which builds
// it from source first:
//
//	bash perfbench/bench.sh --workload geolife-inference --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/dfs"
)

const (
	// setups is how many times set-up runs; setup_s is their median.
	setups = 5
	// minRuns is the least number of measured pipelines, even when
	// they overrun the time budget.
	minRuns = 3
	// stageDeadline bounds one pipeline stage; a miss counts as a
	// failed operation and ends the measured loop. It is far above any
	// stage's wall, and low enough that a hang still ends an
	// invocation within its 180 s.
	stageDeadline = 40 * time.Second
	// geolifeScale shrinks the paper178 GeoLife corpus to about 254k
	// traces; synthUsers sizes the synth-spill corpus (8 traces each).
	// refs.json pins the digests of these corpus sizes.
	geolifeScale = 8
	synthUsers   = 62_500
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale and synthUsers size the corpora: geolifeScale and
	// synthUsers, smaller in the self-tests.
	scale      int
	synthUsers int
	refsPath   string // pinned reference digests
	writeRefs  string // when set, record this seed's digests there
	spansOut   string // traced runs write their spans here
}

func main() {
	cfg := config{scale: geolifeScale, synthUsers: synthUsers}
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same corpus")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "how long the measured loop runs")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&cfg.refsPath, "refs", "perfbench/refs.json", "pinned reference digests")
	flag.StringVar(&cfg.writeRefs, "write-refs", "", "record this corpus's reference digests into the given file and exit")
	flag.StringVar(&cfg.spansOut, "spans-out", ".bench_build/spans", "directory traced runs write their spans to")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes qualify figures; they are printed above the JSON line.
	notes []string
}

// printResult prints every metric by name with its unit, then the
// JSON object as the last line.
func printResult(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g (%d of %d operations failed)\n", "error_rate", errRate, res.Failed, res.Attempted)
	for _, n := range res.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(line))
}

// runRecord is what one measured pipeline run leaves behind.
type runRecord struct {
	traced     bool
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	io         dfs.IOStatsSnapshot
	attempted  int
	failed     int
	hung       bool
	steal      time.Duration // host CPU steal during the run, all CPUs
	st         *state
	// retries and dupCompletions are the RPC plane's tallies (-1
	// in-process).
	retries, dupCompletions int64
}

// run executes one invocation: set-up, a warm-up pipeline that also
// settles the reference, then the measured loop.
func run(cfg config, log io.Writer) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("need -seconds > 0")
	}
	refs, err := loadRefs(cfg.refsPath)
	if err != nil && cfg.writeRefs == "" {
		return nil, err
	}
	b := &bench{cfg: cfg, log: log}

	// Set-up, repeated; the last deployment is the one measured.
	var setupWalls []float64
	setupParts := map[string][]float64{}
	var fx *fixture
	for i := 0; i < setups; i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		f, parts, err := w.setup(b)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(start).Seconds())
		for k, v := range parts {
			setupParts[k] = append(setupParts[k], v)
		}
		fx = f
	}
	defer func() { fx.close() }()
	fmt.Fprintf(log, "%s: seed %d, %d traces, set-up %.3fs (median of %d)\n",
		w.name, cfg.seed, fx.traces, median(setupWalls), len(setupWalls))

	// The reference: pinned digests when this corpus has them, else
	// the digests of a reference run on the in-process testbed.
	want, pinned := refs[fx.refKey]
	if !pinned || cfg.writeRefs != "" {
		want, err = w.reference(b, fx, w.stages)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	if cfg.writeRefs != "" {
		if err := saveRef(cfg.writeRefs, fx.refKey, want); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "recorded reference %s in %s\n", fx.refKey, cfg.writeRefs)
		return &result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}, nil
	}
	fmt.Fprintf(log, "reference %s: pinned=%v\n", fx.refKey, pinned)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(w.name, cfg.seed)
	}
	// Warm-up: caches fill and lazy set-up finishes before timing. Its
	// operations are checked and count toward error_rate like any run's.
	warm := b.pipeline(w, fx, nil, want)
	res := &result{Metrics: map[string]metric{}, Attempted: warm.attempted, Failed: warm.failed}

	if err := resetPeakRSS(); err != nil {
		res.notes = append(res.notes, fmt.Sprintf("peak_rss_mib covers the whole process, set-up included: resetting the peak: %v", err))
	}
	var runs []*runRecord
	loopStart := time.Now()
	for i := 0; !warm.hung; i++ {
		if len(runs) >= minRuns && time.Since(loopStart).Seconds() >= cfg.seconds {
			break
		}
		// Traced invocations alternate untraced and traced runs, so the
		// tracing overhead is measured under the same conditions.
		var rt *tracer
		if tr != nil && i%2 == 1 {
			rt = tr
		}
		r := b.pipeline(w, fx, rt, want)
		runs = append(runs, r)
		fmt.Fprintf(log, "run %d: wall %.3fs cpu %.3fs steal %.3fs alloc %.1fMiB traced=%v\n",
			i, r.wall.Seconds(), r.cpu.Seconds(), r.steal.Seconds(), float64(r.allocBytes)/(1<<20), r.traced)
		if r.hung {
			fmt.Fprintf(log, "run %d missed a stage deadline; stopping the loop\n", i)
			break
		}
	}
	peakRSS := readPeakRSS()

	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	var plain, traced []*runRecord
	for _, r := range runs {
		switch {
		case r.hung:
		case r.traced:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
		}
	}
	plain = undisturbed(plain, log)
	if len(plain) == 0 {
		return res, nil
	}
	if !cfg.trace {
		endToEnd(res, plain, fx, median(setupWalls), peakRSS)
		return res, nil
	}
	if err := perLayer(res, fx, plain, traced, setupParts, tr, cfg.spansOut); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd fills the user-visible metrics from the untraced runs.
func endToEnd(res *result, runs []*runRecord, fx *fixture, setup float64, peakRSS float64) {
	var walls, cpus, allocs, iters []float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		allocs = append(allocs, float64(r.allocBytes)/(1<<20))
		for _, jr := range r.st.iterations {
			iters = append(iters, float64(jr.Wall)/float64(time.Millisecond))
		}
	}
	wall := median(walls)
	values := map[string]float64{
		"wall_s":       wall,
		"traces_per_s": float64(fx.traces) / wall,
		"iter_p50_ms":  median(iters),
		"cpu_s":        median(cpus),
		"alloc_mib":    median(allocs),
		"peak_rss_mib": peakRSS,
		"setup_s":      setup,
	}
	for _, d := range endToEndMetrics {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
}

// bench carries the invocation's settings into the workloads.
type bench struct {
	cfg config
	log io.Writer
}

// pipeline runs one measured pipeline: every stage under its deadline,
// the timed section bracketed by CPU, allocation and DFS counters, then
// the untimed output checks.
func (b *bench) pipeline(w *workload, fx *fixture, tr *tracer, want map[string]string) *runRecord {
	r := &runRecord{traced: tr != nil, retries: -1, dupCompletions: -1}
	d, err := fx.deploy(tr)
	if err != nil {
		// A failed deployment fails every stage of the run.
		fmt.Fprintf(b.log, "deploy: %v\n", err)
		r.attempted, r.failed = len(w.stages), len(w.stages)
		return r
	}
	defer d.close()
	st := newState(b, fx, d, tr)
	r.st = st
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	io0 := d.fs.IOStats()
	cpu0, steal0 := cpuTime(), hostSteal()
	if tr != nil {
		tr.beginRun()
	}
	start := time.Now()
	okStages := map[string]bool{}
	for _, s := range w.stages {
		r.attempted++
		err, hung := st.runStage(s, stageDeadline)
		if hung {
			r.hung = true
		}
		if err != nil {
			fmt.Fprintf(b.log, "stage %s: %v\n", s.name, err)
			r.failed += len(w.stages) - len(okStages)
			r.attempted = len(w.stages)
			break
		}
		okStages[s.name] = true
	}
	r.wall = time.Since(start)
	if tr != nil {
		tr.endRun(r.wall)
	}
	r.cpu = cpuTime() - cpu0
	r.steal = hostSteal() - steal0
	runtime.ReadMemStats(&ms1)
	io1 := d.fs.IOStats()
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	r.io = dfs.IOStatsSnapshot{
		BytesRead:    io1.BytesRead - io0.BytesRead,
		BytesWritten: io1.BytesWritten - io0.BytesWritten,
		ChunksRead:   io1.ChunksRead - io0.ChunksRead,
	}
	if d.rpcStats != nil {
		r.retries, r.dupCompletions = d.rpcStats()
	}
	if r.hung {
		return r
	}
	// Output checks, outside the timed section.
	for _, s := range w.stages {
		if !okStages[s.name] || s.digest == nil {
			continue
		}
		got, err := s.digest(st)
		if err == nil && want != nil && got != want[s.name] {
			err = fmt.Errorf("output digest %s, reference %s", short(got), short(want[s.name]))
		}
		if err != nil {
			fmt.Fprintf(b.log, "check %s: %v\n", s.name, err)
			r.failed++
		}
	}
	if err := d.cleanup(); err != nil {
		fmt.Fprintf(b.log, "cleanup: %v\n", err)
	}
	return r
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// maxSteal is the share of the machine's CPU time, over a run's wall,
// that the hypervisor may give other guests before the run no longer
// measures this program. Undisturbed runs see well under 1%; runs
// during a neighbour's burst see a third or more, and take up to twice
// as long with no more work done.
const maxSteal = 0.05

// undisturbed drops the runs host CPU steal disturbed, unless fewer
// than minRuns would be left; then every run is kept.
func undisturbed(runs []*runRecord, log io.Writer) []*runRecord {
	var kept []*runRecord
	for _, r := range runs {
		if r.steal.Seconds() <= maxSteal*float64(runtime.NumCPU())*r.wall.Seconds() {
			kept = append(kept, r)
		}
	}
	if len(kept) == len(runs) {
		return runs
	}
	if len(kept) < minRuns {
		fmt.Fprintf(log, "%d of %d runs lost over %.0f%% of the CPUs to host steal; too few left, so all are kept\n",
			len(runs)-len(kept), len(runs), maxSteal*100)
		return runs
	}
	fmt.Fprintf(log, "%d of %d runs lost over %.0f%% of the CPUs to host steal and are left out\n",
		len(runs)-len(kept), len(runs), maxSteal*100)
	return kept
}

// hostSteal is the time the hypervisor ran other guests on this
// machine's CPUs, summed over CPUs (the steal column of /proc/stat).
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks int64
	if _, err := fmt.Sscanf(f[8], "%d", &ticks); err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ = 100
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS tracking, so the peak covers the measured loop only. It
// fails on a kernel without clear_refs support; the peak then covers
// the whole process, set-up included.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readPeakRSS reads VmHWM (peak resident set) in MiB.
func readPeakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscanf(f[1], "%g", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
