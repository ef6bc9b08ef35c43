package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
	b.Attach(&Recorder{}) // must not panic
	b.Emit(Event{Type: JobSubmitted, Job: "x"})
}

func TestBusFansOutAndStampsTime(t *testing.T) {
	r1, r2 := &Recorder{}, &Recorder{}
	b := NewBus(r1)
	b.Attach(r2)
	if !b.Active() {
		t.Fatal("bus with sinks reports inactive")
	}
	b.Emit(Event{Type: JobSubmitted, Job: "j"})
	for i, r := range []*Recorder{r1, r2} {
		evs := r.Events()
		if len(evs) != 1 {
			t.Fatalf("sink %d got %d events", i, len(evs))
		}
		if evs[0].Time.IsZero() {
			t.Errorf("sink %d: bus did not stamp Time", i)
		}
	}
	// An explicitly set Time must be preserved.
	at := time.Unix(100, 0)
	b.Emit(Event{Type: JobFinished, Job: "j", Time: at})
	if got := r1.ByType(JobFinished)[0].Time; !got.Equal(at) {
		t.Errorf("Time = %v, want %v", got, at)
	}
}

func TestEmptyBusSkipsWork(t *testing.T) {
	b := NewBus()
	if b.Active() {
		t.Fatal("empty bus reports active")
	}
	b.Emit(Event{Type: JobSubmitted}) // no sinks: no-op
}

func TestRegistryPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "Jobs.", nil).Inc()
	reg.Counter("tasks_total", "Tasks by phase.", Labels{"phase": "map"}).Add(3)
	reg.Counter("tasks_total", "Tasks by phase.", Labels{"phase": "reduce"}).Inc()
	h := reg.Histogram("dur_seconds", "Durations.", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 1",
		`tasks_total{phase="map"} 3`,
		`tasks_total{phase="reduce"} 1`,
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{le="0.1"} 1`,
		`dur_seconds_bucket{le="1"} 2`,
		`dur_seconds_bucket{le="+Inf"} 3`,
		"dur_seconds_sum 5.55",
		"dur_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Counters never go down.
	c := reg.Counter("jobs_total", "", nil)
	c.Add(-5)
	if c.Value() != 1 {
		t.Errorf("negative Add changed counter: %d", c.Value())
	}
	// Same name+labels returns the same series.
	if reg.Counter("jobs_total", "", nil) != c {
		t.Error("registry returned a different counter for same name")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "", Labels{"k": "v"}).Add(7)
	reg.Histogram("b_seconds", "", nil, nil).Observe(2)
	snap := reg.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d points, want 2", len(snap))
	}
	if snap[0].Name != "a_total" || snap[0].Value != 7 || snap[0].Labels["k"] != "v" {
		t.Errorf("bad counter point: %+v", snap[0])
	}
	if snap[1].Name != "b_seconds" || snap[1].Count != 1 || snap[1].Sum != 2 {
		t.Errorf("bad histogram point: %+v", snap[1])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-serialisable: %v", err)
	}
}

func TestMetricsSinkDerivesEngineMetrics(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	s.Emit(Event{Type: JobSubmitted, Job: "j"})
	s.Emit(Event{Type: TaskScheduled, Phase: "map"})
	s.Emit(Event{Type: AttemptSucceeded, Phase: "map", Attempt: 1, Locality: "data-local", Dur: 20 * time.Millisecond})
	s.Emit(Event{Type: AttemptFailed, Phase: "map", Err: "boom"})
	s.Emit(Event{Type: AttemptKilled, Phase: "reduce"})
	s.Emit(Event{Type: PhaseEnd, Phase: "shuffle", Value: 1234, Dur: time.Millisecond})
	s.Emit(Event{Type: JobFinished, Job: "j", Dur: 50 * time.Millisecond})

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"mr_jobs_submitted_total 1",
		`mr_jobs_finished_total{status="succeeded"} 1`,
		`mr_task_attempts_scheduled_total{phase="map"} 1`,
		`mr_task_attempts_total{phase="map",status="succeeded"} 1`,
		`mr_task_attempts_total{phase="map",status="failed"} 1`,
		`mr_task_attempts_total{phase="reduce",status="killed"} 1`,
		"mr_speculative_killed_total 1",
		"mr_shuffle_bytes_total 1234",
		`mr_task_locality_total{locality="data-local"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Attempt 1 (0-based) means 2 attempts for the task.
	if h := reg.Histogram("mr_attempts_per_task", "", attemptBuckets, nil); h.Sum() != 2 {
		t.Errorf("attempts_per_task sum = %g, want 2", h.Sum())
	}
}

func TestMetricsSinkPartitionCounters(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	s.Emit(Event{Type: PhaseEnd, Phase: "shuffle", Value: 60, Dur: time.Millisecond, Parts: []PartStat{
		{Part: 0, Runs: 2, Records: 3, Bytes: 10, DurUs: 5},
		{Part: 1, Runs: 2, Records: 97, Bytes: 50, DurUs: 40},
	}})
	// A second job's shuffle accumulates into the same partition series.
	s.Emit(Event{Type: PhaseEnd, Phase: "shuffle", Value: 4, Dur: time.Millisecond, Parts: []PartStat{
		{Part: 0, Runs: 1, Records: 1, Bytes: 4, DurUs: 2},
	}})

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`shuffle_partition_records{partition="0"} 4`,
		`shuffle_partition_records{partition="1"} 97`,
		`shuffle_partition_bytes{partition="0"} 14`,
		`shuffle_partition_bytes{partition="1"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("queue_depth", "Depth.", Labels{"q": "a"})
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge value = %d, want 7", g.Value())
	}
	// Same name+labels returns the same gauge.
	if reg.Gauge("queue_depth", "", Labels{"q": "a"}) != g {
		t.Error("registry returned a different gauge for same name+labels")
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE queue_depth gauge",
		`queue_depth{q="a"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Name != "queue_depth" || snap[0].Value != 7 {
		t.Errorf("gauge snapshot: %+v", snap)
	}
}

func TestRuntimeSamplerPopulatesGauges(t *testing.T) {
	reg := NewRegistry()
	stop := StartRuntimeSampler(reg, time.Hour) // first sample is immediate
	defer stop()
	if v := reg.Gauge("go_goroutines", "", nil).Value(); v <= 0 {
		t.Errorf("go_goroutines = %d, want > 0", v)
	}
	if v := reg.Gauge("go_heap_alloc_bytes", "", nil).Value(); v <= 0 {
		t.Errorf("go_heap_alloc_bytes = %d, want > 0", v)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "go_heap_sys_bytes") {
		t.Error("runtime gauges missing from exposition")
	}
	stop()
	stop() // idempotent
}

func TestRecorderRetentionKeepsRunningJobs(t *testing.T) {
	r := &Recorder{MaxJobs: 2}
	// A pipeline span (no Job) and a long-running job that never
	// finishes during the test.
	r.Emit(Event{Type: SpanStart, Span: "pipe"})
	r.Emit(Event{Type: JobSubmitted, Job: "long-running", Parent: "pipe"})
	r.Emit(Event{Type: AttemptStarted, Job: "long-running", Phase: "map", Task: "map-0000"})
	// Three jobs finish around it; MaxJobs=2 must evict only the oldest.
	for _, j := range []string{"old-1", "old-2", "old-3"} {
		r.Emit(Event{Type: JobSubmitted, Job: j, Parent: "pipe"})
		r.Emit(Event{Type: JobFinished, Job: j})
	}

	byJob := map[string]int{}
	for _, e := range r.Events() {
		byJob[e.Job]++
	}
	if byJob["old-1"] != 0 {
		t.Errorf("oldest finished job retained %d events, want 0", byJob["old-1"])
	}
	for _, j := range []string{"old-2", "old-3"} {
		if byJob[j] != 2 {
			t.Errorf("job %s has %d events, want 2", j, byJob[j])
		}
	}
	// The still-running job and the span events are never pruned.
	if byJob["long-running"] != 2 {
		t.Errorf("running job has %d events, want 2 — retention dropped a live job", byJob["long-running"])
	}
	if byJob[""] != 1 {
		t.Errorf("span events pruned: %d, want 1", byJob[""])
	}

	// Once the running job finishes it becomes evictable like any other.
	r.Emit(Event{Type: JobFinished, Job: "long-running"})
	r.Emit(Event{Type: JobSubmitted, Job: "old-4"})
	r.Emit(Event{Type: JobFinished, Job: "old-4"})
	for _, e := range r.Events() {
		if e.Job == "old-2" {
			t.Fatal("old-2 should have been evicted after two more jobs finished")
		}
	}
}

func TestHistoryRetentionPrunesOldest(t *testing.T) {
	h := NewHistory(NewDirFS(t.TempDir()))
	h.SetMaxJobs(2)
	// Only finished jobs ever reach Save, so pruning the oldest record
	// files can never touch a running job; the in-memory side of that
	// guarantee is TestRecorderRetentionKeepsRunningJobs.
	for _, name := range []string{"job-a", "job-b", "job-c"} {
		if _, err := h.Save(JobRecord{Job: name}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := h.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("listed %d records after pruning, want 2", len(recs))
	}
	if recs[0].Job != "job-b" || recs[0].Seq != 2 || recs[1].Job != "job-c" || recs[1].Seq != 3 {
		t.Errorf("retained wrong records: %+v", recs)
	}
	if _, ok := h.Find("job-a"); ok {
		t.Error("pruned record still findable")
	}
	// Sequence numbering keeps advancing past pruned records.
	if _, err := h.Save(JobRecord{Job: "job-d"}); err != nil {
		t.Fatal(err)
	}
	if rec, ok := h.Find("job-d"); !ok || rec.Seq != 4 {
		t.Errorf("Find(job-d) = %+v, %v; want seq 4", rec, ok)
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker()
	t0 := time.Unix(1000, 0)
	tr.Emit(Event{Type: SpanStart, Span: "pipe", Time: t0})
	tr.Emit(Event{Type: JobSubmitted, Job: "j1", Parent: "pipe", Time: t0})
	tr.Emit(Event{Type: PhaseStart, Job: "j1", Phase: "map", Time: t0})
	tr.Emit(Event{Type: AttemptStarted, Job: "j1", Phase: "map", Task: "map-0000", Node: "n1", Time: t0})
	jobs := tr.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("tracking %d jobs, want 2 (span + job)", len(jobs))
	}
	if jobs[0].Kind != "span" || jobs[0].Name != "pipe" || jobs[0].State != "running" {
		t.Errorf("span state: %+v", jobs[0])
	}
	if jobs[1].Parent != "pipe" || jobs[1].RunningAttempts != 1 {
		t.Errorf("job state: %+v", jobs[1])
	}

	tr.Emit(Event{Type: AttemptSucceeded, Job: "j1", Phase: "map", Task: "map-0000", Node: "n1",
		Locality: "data-local", Time: t0.Add(time.Second)})
	tr.Emit(Event{Type: PhaseEnd, Job: "j1", Phase: "map", Dur: time.Second, Time: t0.Add(time.Second)})
	tr.Emit(Event{Type: JobFinished, Job: "j1", Time: t0.Add(time.Second)})
	tr.Emit(Event{Type: SpanEnd, Span: "pipe", Err: "exploded", Detail: "records=7", Time: t0.Add(time.Second)})

	js, attempts, ok := tr.Job("j1")
	if !ok {
		t.Fatal("job j1 not found")
	}
	if js.State != "succeeded" || js.RunningAttempts != 0 || js.FinishedAttempts != 1 {
		t.Errorf("finished job state: %+v", js)
	}
	if len(js.Phases) != 1 || !js.Phases[0].Done || js.Phases[0].Wall != time.Second {
		t.Errorf("phase state: %+v", js.Phases)
	}
	if len(attempts) != 1 || attempts[0].Status != "succeeded" || attempts[0].Locality != "data-local" {
		t.Errorf("attempts: %+v", attempts)
	}
	if span, _, _ := tr.Job("pipe"); span.State != "failed" || span.Error != "exploded" || span.Detail != "records=7" {
		t.Errorf("span end state: %+v", span)
	}
}

func TestHistorySaveListFind(t *testing.T) {
	dir := t.TempDir()
	h := NewHistory(NewDirFS(dir))
	for i, name := range []string{"job-a", "job-b", "job-a"} {
		path, err := h.Save(JobRecord{Job: name, WallMs: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(path, HistoryDir+"/") {
			t.Errorf("record path %q not under %s", path, HistoryDir)
		}
	}
	recs, err := h.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("listed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != i+1 {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
	// Find by name returns the latest matching record.
	if rec, ok := h.Find("job-a"); !ok || rec.Seq != 3 {
		t.Errorf("Find(job-a) = %+v, %v; want seq 3", rec, ok)
	}
	// Find by sequence number.
	if rec, ok := h.Find("2"); !ok || rec.Job != "job-b" {
		t.Errorf("Find(2) = %+v, %v; want job-b", rec, ok)
	}
	if _, ok := h.Find("nope"); ok {
		t.Error("Find matched a non-existent key")
	}

	// A new History over the same directory continues the numbering —
	// the cross-process case behind `gepeto history`.
	h2 := NewHistory(NewDirFS(dir))
	if _, err := h2.Save(JobRecord{Job: "job-c"}); err != nil {
		t.Fatal(err)
	}
	if rec, ok := h2.Find("job-c"); !ok || rec.Seq != 4 {
		t.Errorf("new store assigned seq %d, want 4", rec.Seq)
	}
}

// mapFS is an in-memory FS for tee tests.
type mapFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMapFS() *mapFS { return &mapFS{files: make(map[string][]byte)} }

func (m *mapFS) Create(path string, data []byte, _ string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return fmt.Errorf("%s exists", path)
	}
	m.files[path] = append([]byte(nil), data...)
	return nil
}

func (m *mapFS) List(dir string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for p := range m.files {
		if strings.HasPrefix(p, dir+"/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func (m *mapFS) Delete(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return fmt.Errorf("%s: no such file", path)
	}
	delete(m.files, path)
	return nil
}

func (m *mapFS) ReadAll(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("%s: no such file", path)
	}
	return data, nil
}

func TestTeeFS(t *testing.T) {
	prim, sec := newMapFS(), newMapFS()
	tee := Tee(prim, sec)
	if err := tee.Create("_history/000001-a.json", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.ReadAll("_history/000001-a.json"); err != nil {
		t.Error("primary missing the record")
	}
	if _, err := sec.ReadAll("_history/000001-a.json"); err != nil {
		t.Error("secondary missing the record")
	}
	// A secondary-only file is still listed and readable (fallback).
	if err := sec.Create("_history/000002-b.json", []byte("y"), ""); err != nil {
		t.Fatal(err)
	}
	if got := tee.List(HistoryDir); len(got) != 2 {
		t.Errorf("tee lists %v, want 2 entries", got)
	}
	if data, err := tee.ReadAll("_history/000002-b.json"); err != nil || string(data) != "y" {
		t.Errorf("tee fallback read = %q, %v", data, err)
	}
	// A mirror collision must not fail the create.
	if err := tee.Create("_history/000002-b.json", []byte("z"), ""); err != nil {
		t.Errorf("tee failed on secondary collision: %v", err)
	}
}

func TestRenderTimeline(t *testing.T) {
	rec := JobRecord{
		Job: "demo", MapTasks: 2, ReduceTasks: 1, WallMs: 100,
		Attempts: []AttemptRecord{
			{Task: "map-0000", Phase: "map", Node: "node-1", StartMs: 0, EndMs: 60, Status: "succeeded"},
			{Task: "map-0001", Phase: "map", Node: "node-2", StartMs: 0, EndMs: 30, Status: "failed", Error: "x"},
			{Task: "map-0001", Phase: "map", Attempt: 1, Node: "node-1", StartMs: 30, EndMs: 90, Status: "succeeded"},
			{Task: "reduce-0000", Phase: "reduce", Node: "node-2", StartMs: 60, EndMs: 100, Status: "killed", Backup: true},
		},
	}
	out := RenderTimeline(rec, 72)
	for _, want := range []string{
		"job demo — 2 map / 1 reduce tasks",
		"node-1 |",
		"node-2 |",
		"legend:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Failed and killed attempts use their own fill characters.
	if !strings.Contains(out, "x") {
		t.Error("no failed-attempt marks in timeline")
	}
	if !strings.Contains(out, "~") {
		t.Error("no killed-attempt marks in timeline")
	}
	// Overlapping attempts on one node must stack onto separate lanes:
	// node-1 runs map-0000 (0-60) and map-0001/1 (30-90) concurrently.
	if n := strings.Count(out, "node-1 |"); n != 2 {
		t.Errorf("node-1 has %d lanes, want 2:\n%s", n, out)
	}
	if empty := RenderTimeline(JobRecord{Job: "none"}, 0); !strings.Contains(empty, "no attempt records") {
		t.Errorf("empty record render: %q", empty)
	}
}

// TestRenderTimelineFailedAndSpeculative pins down the exact lane
// layout of a retry-plus-speculation story: map-0001 fails on node-b,
// retries on node-a, is speculated on node-c, and the backup loses.
func TestRenderTimelineFailedAndSpeculative(t *testing.T) {
	rec := JobRecord{
		Job: "retry", MapTasks: 2, ReduceTasks: 0, WallMs: 200,
		Attempts: []AttemptRecord{
			{Task: "map-0000", Phase: "map", Node: "node-a", StartMs: 0, EndMs: 40, Status: "succeeded"},
			{Task: "map-0001", Phase: "map", Node: "node-b", StartMs: 0, EndMs: 50, Status: "failed", Error: "boom"},
			{Task: "map-0001", Phase: "map", Attempt: 1, Node: "node-a", StartMs: 60, EndMs: 200, Status: "succeeded"},
			{Task: "map-0001", Phase: "map", Attempt: 2, Node: "node-c", StartMs: 120, EndMs: 180, Status: "killed", Backup: true},
		},
	}
	out := RenderTimeline(rec, 80)
	lines := strings.Split(out, "\n")

	laneFor := func(node, marker string) string {
		t.Helper()
		for _, ln := range lines {
			if strings.HasPrefix(ln, node+" ") && strings.Contains(ln, marker) {
				return ln
			}
		}
		t.Fatalf("no %s lane containing %q:\n%s", node, marker, out)
		return ""
	}
	// The failed attempt renders with 'x' fill and its task/attempt label.
	failed := laneFor("node-b", "x")
	if !strings.Contains(failed, "map-0001/0") {
		t.Errorf("failed attempt lane missing label: %q", failed)
	}
	// The killed speculative backup renders with '~' fill on its node.
	killed := laneFor("node-c", "~")
	if !strings.Contains(killed, "map-0001/2") {
		t.Errorf("killed backup lane missing label: %q", killed)
	}
	// node-a's two attempts don't overlap, so they share a single lane.
	if n := strings.Count(out, "node-a |"); n != 1 {
		t.Errorf("node-a has %d lanes, want 1 (attempts are disjoint):\n%s", n, out)
	}
	if !strings.Contains(out, "wall 200ms") {
		t.Errorf("header missing wall time:\n%s", out)
	}
	if !strings.Contains(out, "legend: = succeeded   x failed   ~ speculative loser (killed)") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestStatusServerHandleAndShutdown(t *testing.T) {
	srv, err := NewStatusServer("127.0.0.1:0", NewTracker(), NewRegistry(), NewHistory(newMapFS()))
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle("/trace/", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "trace-payload")
	}))

	resp, err := http.Get(srv.URL() + "/trace/j1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "trace-payload" {
		t.Errorf("/trace/j1 -> %d %q", resp.StatusCode, body)
	}
	// Registered patterns are advertised on the index page.
	resp, err = http.Get(srv.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "/trace/") {
		t.Errorf("index does not advertise /trace/: %q", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener is released: connecting again must fail.
	if _, err := http.Get(srv.URL() + "/"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

func TestStatusServerEndpoints(t *testing.T) {
	tr := NewTracker()
	tr.Emit(Event{Type: JobSubmitted, Job: "j1", Time: time.Unix(1, 0)})
	tr.Emit(Event{Type: AttemptStarted, Job: "j1", Phase: "map", Task: "map-0000", Node: "n1", Time: time.Unix(1, 0)})
	reg := NewRegistry()
	reg.Counter("mr_jobs_submitted_total", "Jobs.", nil).Inc()
	hist := NewHistory(NewDirFS(t.TempDir()))
	if _, err := hist.Save(JobRecord{Job: "j1"}); err != nil {
		t.Fatal(err)
	}

	srv, err := NewStatusServer("127.0.0.1:0", tr, reg, hist)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "j1") {
		t.Errorf("/ -> %d %q", code, body)
	}
	if code, body := get("/jobs"); code != 200 || !strings.Contains(body, `"j1"`) {
		t.Errorf("/jobs -> %d %q", code, body)
	}
	code, body := get("/jobs/j1")
	if code != 200 || !strings.Contains(body, `"map-0000"`) {
		t.Errorf("/jobs/j1 -> %d %q", code, body)
	}
	if code, _ := get("/jobs/unknown"); code != 404 {
		t.Errorf("/jobs/unknown -> %d, want 404", code)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "mr_jobs_submitted_total 1") {
		t.Errorf("/metrics -> %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, "mr_jobs_submitted_total") {
		t.Errorf("/metrics.json -> %d %q", code, body)
	}
	if code, body := get("/history"); code != 200 || !strings.Contains(body, `"j1"`) {
		t.Errorf("/history -> %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline -> %d", code)
	}

	// The Extra hook appends to /metrics.
	srv.Extra = func() string { return "extra_gauge 42\n" }
	if _, body := get("/metrics"); !strings.Contains(body, "extra_gauge 42") {
		t.Error("/metrics missing Extra output")
	}
}
