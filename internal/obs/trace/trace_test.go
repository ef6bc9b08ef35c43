package trace

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// serve runs one request through a handler and returns body + status.
func serve(t *testing.T, h http.Handler, url string) (string, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec.Body.String(), rec.Code
}

var fixtureBase = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

// at returns the fixture base time plus an offset in microseconds.
func at(us int64) time.Time { return fixtureBase.Add(time.Duration(us) * time.Microsecond) }

// fixtureEvents is a deterministic pipeline run: a root span holding a
// sub-span holding one job, with a straggling map task rescued by a
// speculative backup, a failed-then-retried map task, a skewed
// three-partition shuffle, and two reducers.
func fixtureEvents() []obs.Event {
	mk := func(t obs.EventType, us int64, f obs.Event) obs.Event {
		f.Type = t
		f.Time = at(us)
		return f
	}
	return []obs.Event{
		mk(obs.SpanStart, 0, obs.Event{Span: "pipe", Detail: "fixture"}),
		mk(obs.SpanStart, 1000, obs.Event{Span: "pipe/sub", Parent: "pipe"}),
		mk(obs.JobSubmitted, 2000, obs.Event{Job: "job-a", Parent: "pipe/sub", Detail: "maps=3 reducers=3"}),
		mk(obs.PhaseStart, 2100, obs.Event{Job: "job-a", Phase: "map"}),
		mk(obs.AttemptStarted, 2200, obs.Event{Job: "job-a", Phase: "map", Task: "map-0000", Node: "n1", Locality: "data-local"}),
		mk(obs.AttemptStarted, 2200, obs.Event{Job: "job-a", Phase: "map", Task: "map-0001", Node: "n2"}),
		mk(obs.AttemptStarted, 2200, obs.Event{Job: "job-a", Phase: "map", Task: "map-0002", Node: "n3"}),
		mk(obs.AttemptFailed, 2500, obs.Event{Job: "job-a", Phase: "map", Task: "map-0002", Node: "n3", Err: "boom"}),
		mk(obs.AttemptStarted, 2600, obs.Event{Job: "job-a", Phase: "map", Task: "map-0002", Attempt: 1, Node: "n1"}),
		mk(obs.AttemptSucceeded, 3000, obs.Event{Job: "job-a", Phase: "map", Task: "map-0000", Node: "n1", Locality: "data-local"}),
		mk(obs.AttemptSucceeded, 3100, obs.Event{Job: "job-a", Phase: "map", Task: "map-0002", Attempt: 1, Node: "n1"}),
		// map-0001 straggles; a backup on n1 wins, the original is killed.
		mk(obs.AttemptStarted, 4000, obs.Event{Job: "job-a", Phase: "map", Task: "map-0001", Attempt: 1, Node: "n1", Backup: true}),
		mk(obs.AttemptSucceeded, 4500, obs.Event{Job: "job-a", Phase: "map", Task: "map-0001", Attempt: 1, Node: "n1", Backup: true}),
		mk(obs.AttemptKilled, 4600, obs.Event{Job: "job-a", Phase: "map", Task: "map-0001", Node: "n2"}),
		mk(obs.PhaseEnd, 5000, obs.Event{Job: "job-a", Phase: "map"}),
		mk(obs.PhaseStart, 5100, obs.Event{Job: "job-a", Phase: "shuffle"}),
		mk(obs.PhaseEnd, 6000, obs.Event{Job: "job-a", Phase: "shuffle", Value: 6000, Parts: []obs.PartStat{
			{Part: 0, Runs: 1, Records: 2, Bytes: 100, DurUs: 50},
			{Part: 1, Runs: 1, Records: 4, Bytes: 200, DurUs: 60},
			{Part: 2, Runs: 3, Records: 94, Bytes: 5700, DurUs: 700},
		}}),
		mk(obs.PhaseStart, 6100, obs.Event{Job: "job-a", Phase: "reduce"}),
		mk(obs.AttemptStarted, 6200, obs.Event{Job: "job-a", Phase: "reduce", Task: "reduce-0000", Node: "n2"}),
		mk(obs.AttemptStarted, 6200, obs.Event{Job: "job-a", Phase: "reduce", Task: "reduce-0001", Node: "n3"}),
		mk(obs.AttemptSucceeded, 6500, obs.Event{Job: "job-a", Phase: "reduce", Task: "reduce-0001", Node: "n3"}),
		mk(obs.AttemptSucceeded, 7000, obs.Event{Job: "job-a", Phase: "reduce", Task: "reduce-0000", Node: "n2"}),
		mk(obs.PhaseEnd, 7100, obs.Event{Job: "job-a", Phase: "reduce"}),
		mk(obs.JobFinished, 7200, obs.Event{Job: "job-a", Dur: 5200 * time.Microsecond}),
		mk(obs.SpanEnd, 7300, obs.Event{Span: "pipe/sub"}),
		mk(obs.SpanEnd, 7500, obs.Event{Span: "pipe"}),
	}
}

func TestAssembleBuildsCausalTree(t *testing.T) {
	trees := Assemble(fixtureEvents())
	if len(trees) != 1 {
		t.Fatalf("trees: %d, want 1", len(trees))
	}
	tr := trees[0]
	root := tr.Root
	if root.Kind != KindPipeline || root.Name != "pipe" {
		t.Fatalf("root = %s %q", root.Kind, root.Name)
	}
	if root.StartUs != 0 || root.EndUs != 7500 {
		t.Errorf("root span [%d,%d], want [0,7500]", root.StartUs, root.EndUs)
	}
	if tr.StartUnixMs != fixtureBase.UnixMilli() {
		t.Errorf("anchor = %d, want %d", tr.StartUnixMs, fixtureBase.UnixMilli())
	}
	if len(root.Children) != 1 || root.Children[0].Name != "pipe/sub" {
		t.Fatalf("root children: %+v", root.Children)
	}
	job := root.Job("job-a")
	if job == nil {
		t.Fatal("job-a not linked under the pipeline")
	}
	if job.StartUs != 2000 || job.EndUs != 7200 || job.Status != StatusSucceeded {
		t.Errorf("job span: [%d,%d] %s", job.StartUs, job.EndUs, job.Status)
	}
	if len(job.Children) != 3 {
		t.Fatalf("phases: %d, want 3", len(job.Children))
	}
	mapPhase := job.Children[0]
	if mapPhase.Name != "map" || len(mapPhase.Children) != 5 {
		t.Fatalf("map phase %q with %d attempts, want 5", mapPhase.Name, len(mapPhase.Children))
	}
	statuses := map[string]string{}
	for _, a := range mapPhase.Children {
		statuses[a.Name+"/"+itoa4(a.Attempt)] = a.Status
	}
	for key, want := range map[string]string{
		"map-0000/0000": StatusSucceeded,
		"map-0001/0000": StatusKilled,
		"map-0001/0001": StatusSucceeded,
		"map-0002/0000": StatusFailed,
		"map-0002/0001": StatusSucceeded,
	} {
		if statuses[key] != want {
			t.Errorf("attempt %s status = %q, want %q", key, statuses[key], want)
		}
	}
	// The backup winner keeps its Backup mark; the failure its error.
	for _, a := range mapPhase.Children {
		if a.Name == "map-0001" && a.Attempt == 1 && !a.Backup {
			t.Error("backup attempt lost its Backup mark")
		}
		if a.Name == "map-0002" && a.Attempt == 0 && a.Error != "boom" {
			t.Errorf("failed attempt error = %q", a.Error)
		}
	}
	shuffle := job.Children[1]
	if shuffle.Name != "shuffle" || len(shuffle.Parts) != 3 || shuffle.Value != 6000 {
		t.Fatalf("shuffle span: %+v", shuffle)
	}
}

func TestAssembleClosesOpenSpansAtLastEvent(t *testing.T) {
	evs := fixtureEvents()
	// Cut the stream before the SpanEnds and the JobFinished.
	var cut []obs.Event
	for _, e := range evs {
		if e.Type == obs.SpanEnd || e.Type == obs.JobFinished {
			continue
		}
		cut = append(cut, e)
	}
	trees := Assemble(cut)
	if len(trees) != 1 {
		t.Fatalf("trees: %d, want 1", len(trees))
	}
	root := trees[0].Root
	if root.Status != StatusRunning {
		t.Errorf("open root status = %q", root.Status)
	}
	// The open root extends to the last event beneath it (reduce
	// PhaseEnd at 7100).
	if root.EndUs != 7100 {
		t.Errorf("open root EndUs = %d, want 7100", root.EndUs)
	}
}

func TestCollectorFinalizesAndDropsLateEvents(t *testing.T) {
	c := NewCollector(nil, 2)
	bus := obs.NewBus(c)
	for _, e := range fixtureEvents() {
		bus.Emit(e)
	}
	trees := c.Finished()
	if len(trees) != 1 || trees[0].Root.Name != "pipe" {
		t.Fatalf("finished trees: %+v", trees)
	}
	if trees[0].Seq != 1 {
		t.Errorf("seq = %d, want 1", trees[0].Seq)
	}
	// A late kill for the closed job must be dropped, not grow a group.
	bus.Emit(obs.Event{Type: obs.AttemptKilled, Time: at(9000),
		Job: "job-a", Phase: "map", Task: "map-0001", Node: "n2"})
	if got := c.Finished(); len(got) != 1 {
		t.Fatalf("late event created a tree: %d", len(got))
	}
	c.mu.Lock()
	pending := len(c.groups)
	c.mu.Unlock()
	if pending != 0 {
		t.Errorf("late event leaked a pending group")
	}

	// A standalone job (no pipeline span) becomes its own root and
	// finalizes on JobFinished.
	bus.Emit(obs.Event{Type: obs.JobSubmitted, Time: at(10000), Job: "solo"})
	bus.Emit(obs.Event{Type: obs.JobFinished, Time: at(11000), Job: "solo"})
	trees = c.Finished()
	if len(trees) != 2 || trees[1].Root.Kind != KindJob || trees[1].Root.Name != "solo" {
		t.Fatalf("standalone job tree: %+v", trees)
	}
	if tr, ok := c.Find("solo"); !ok || tr.Root.Name != "solo" {
		t.Error("Find(solo) failed")
	}
	if tr, ok := c.Find("job-a"); !ok || tr.Root.Name != "pipe" {
		t.Error("Find by contained job name failed")
	}

	// The ring is bounded: a third root evicts the oldest.
	bus.Emit(obs.Event{Type: obs.JobSubmitted, Time: at(12000), Job: "solo-2"})
	bus.Emit(obs.Event{Type: obs.JobFinished, Time: at(13000), Job: "solo-2"})
	trees = c.Finished()
	if len(trees) != 2 || trees[0].Root.Name != "solo" || trees[1].Root.Name != "solo-2" {
		t.Fatalf("bounded ring: %+v", trees)
	}
}

func TestStoreRoundTripAndRetention(t *testing.T) {
	st := NewStore(obs.NewDirFS(t.TempDir()))
	st.SetMaxTraces(2)
	for _, evs := range [][]obs.Event{fixtureEvents(), fixtureEvents(), fixtureEvents()} {
		for _, tr := range Assemble(evs) {
			if _, err := st.Save(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	trees, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("retained trees: %d, want 2", len(trees))
	}
	if trees[0].Seq != 2 || trees[1].Seq != 3 {
		t.Errorf("retained seqs = %d,%d; want 2,3 (oldest pruned)", trees[0].Seq, trees[1].Seq)
	}
	// The round-tripped tree is structurally intact.
	got := trees[1]
	if got.Root.Name != "pipe" || got.Root.Job("job-a") == nil {
		t.Fatalf("round-tripped tree lost structure: %+v", got.Root)
	}
	if parts := got.Root.Job("job-a").Children[1].Parts; len(parts) != 3 || parts[2].Bytes != 5700 {
		t.Errorf("round-tripped Parts: %+v", parts)
	}
	if _, ok := st.Find("job-a"); !ok {
		t.Error("store Find by job name failed")
	}
	if _, ok := st.Find("3"); !ok {
		t.Error("store Find by seq failed")
	}
	if _, ok := st.Find("nope"); ok {
		t.Error("store Find matched a missing key")
	}
}

func TestChromeExportGolden(t *testing.T) {
	trees := Assemble(fixtureEvents())
	data, err := EncodeChrome(trees[0])
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "chrome_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(data) != string(want) {
		t.Errorf("chrome export drifted from golden file %s;\nrun UPDATE_GOLDEN=1 go test ./internal/obs/trace and review the diff", goldenPath)
	}
}

func TestChromeExportRoundTripsAgainstSchema(t *testing.T) {
	trees := Assemble(fixtureEvents())
	data, err := EncodeChrome(trees[0])
	if err != nil {
		t.Fatal(err)
	}
	ct, err := DecodeChrome(data)
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	var complete, meta, merges int
	threads := map[int]bool{}
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			threads[e.Tid] = true
			if e.Cat == "merge" {
				merges++
			}
		case "M":
			meta++
		}
	}
	// 1 pipeline + 1 sub-span + 1 job + 3 phases + 7 attempts + 3 merges.
	if complete != 16 {
		t.Errorf("complete events: %d, want 16", complete)
	}
	if merges != 3 {
		t.Errorf("merge events: %d, want 3", merges)
	}
	// Every referenced thread carries a thread_name metadata record.
	named := map[int]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			named[e.Tid] = true
		}
	}
	for tid := range threads {
		if !named[tid] {
			t.Errorf("thread %d has no thread_name metadata", tid)
		}
	}
	if meta < len(named)+1 {
		t.Errorf("metadata events: %d, want at least %d", meta, len(named)+1)
	}
	// Malformed traces are rejected.
	if _, err := DecodeChrome([]byte(`{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":0}]}`)); err == nil {
		t.Error("unsupported phase not rejected")
	}
	if _, err := DecodeChrome([]byte(`{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":0}]}`)); err == nil {
		t.Error("complete event without dur not rejected")
	}
}

func TestAnalyzeCriticalPathTilesJobWall(t *testing.T) {
	trees := Assemble(fixtureEvents())
	a := AnalyzeTree(trees[0], Options{})
	if len(a.Jobs) != 1 {
		t.Fatalf("analyzed jobs: %d", len(a.Jobs))
	}
	ja := a.Jobs[0]
	if ja.Job != "job-a" || ja.WallUs != 5200 {
		t.Fatalf("job analysis: %s wall=%d", ja.Job, ja.WallUs)
	}
	// The path is contiguous from job start to job end...
	cursor := int64(0) // job-relative: first step starts at job.StartUs
	jobSpan := trees[0].Root.Job("job-a")
	cursor = jobSpan.StartUs
	for i, st := range ja.Path {
		if st.StartUs != cursor {
			t.Fatalf("step %d starts at %d, want %d (gap/overlap)", i, st.StartUs, cursor)
		}
		if st.DurUs() < 0 {
			t.Fatalf("step %d has negative duration", i)
		}
		cursor = st.EndUs
	}
	if cursor != jobSpan.EndUs {
		t.Fatalf("path ends at %d, want %d", cursor, jobSpan.EndUs)
	}
	// ...so the per-phase attribution sums exactly to the wall, and the
	// percentages to 100.
	var sum int64
	var pct float64
	for _, pc := range ja.Phases {
		sum += pc.DurUs
		pct += pc.Pct
	}
	if sum != ja.WallUs {
		t.Errorf("phase attribution sums to %d, want %d", sum, ja.WallUs)
	}
	if pct < 99.9 || pct > 100.1 {
		t.Errorf("percentages sum to %.2f", pct)
	}
	// The shuffle chain names the slowest partition merge.
	var mergeStep *PathStep
	for i := range ja.Path {
		if ja.Path[i].Kind == "merge" {
			mergeStep = &ja.Path[i]
		}
	}
	if mergeStep == nil || mergeStep.Task != "merge-p0002" {
		t.Errorf("shuffle critical step: %+v", mergeStep)
	}

	// Straggler pass: the killed original of map-0001 ran 2400µs against
	// a 500µs phase median — flagged, cross-referenced with the kill.
	if len(ja.Stragglers) == 0 {
		t.Fatal("no stragglers flagged")
	}
	s := ja.Stragglers[0]
	if s.Task != "map-0001" || s.Attempt != 0 {
		t.Fatalf("top straggler: %+v", s)
	}
	if !s.Speculated || !s.LostToBackup {
		t.Errorf("straggler speculation cross-ref: %+v", s)
	}

	// Skew pass: partition 2 holds 5700 of 6000 bytes.
	if ja.Skew == nil {
		t.Fatal("no skew report")
	}
	if ja.Skew.Partitions != 3 || ja.Skew.MaxPart.Part != 2 {
		t.Errorf("skew report: %+v", ja.Skew)
	}
	if ja.Skew.Imbalance < 2.8 || ja.Skew.Imbalance > 2.9 {
		t.Errorf("imbalance = %.2f, want 2.85", ja.Skew.Imbalance)
	}
	if len(ja.Skew.Hot) != 1 || ja.Skew.Hot[0].Part != 2 {
		t.Errorf("hot partitions: %+v", ja.Skew.Hot)
	}
}

func TestWriteReportMentionsEverySection(t *testing.T) {
	trees := Assemble(fixtureEvents())
	a := AnalyzeTree(trees[0], Options{})
	var sb strings.Builder
	WriteReport(&sb, trees[0], a)
	out := sb.String()
	for _, want := range []string{
		"job job-a", "critical path", "map", "shuffle skew",
		"stragglers", "map-0001/0", "lost to backup", "HOT p0002",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPHandlers(t *testing.T) {
	c := NewCollector(nil, 4)
	for _, e := range fixtureEvents() {
		c.Emit(e)
	}
	src := Multi(nil, c)
	// TraceHandler serves the tree and the chrome form.
	th := TraceHandler("/trace/", src)
	body, code := serve(t, th, "/trace/pipe")
	if code != 200 || !strings.Contains(body, `"kind": "pipeline"`) {
		t.Errorf("trace endpoint: code=%d body=%.120s", code, body)
	}
	body, code = serve(t, th, "/trace/pipe?format=chrome")
	if code != 200 || !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("chrome endpoint: code=%d body=%.120s", code, body)
	}
	if _, err := DecodeChrome([]byte(body)); err != nil {
		t.Errorf("served chrome trace invalid: %v", err)
	}
	if _, code = serve(t, th, "/trace/absent"); code != 404 {
		t.Errorf("missing trace: code=%d", code)
	}
	// AnalyzeHandler serves JSON and text, honouring factor overrides.
	ah := AnalyzeHandler("/analyze/", src, Options{})
	body, code = serve(t, ah, "/analyze/job-a")
	if code != 200 || !strings.Contains(body, `"stragglers"`) {
		t.Errorf("analyze endpoint: code=%d body=%.120s", code, body)
	}
	body, code = serve(t, ah, "/analyze/job-a?format=text&slow=100")
	if code != 200 || strings.Contains(body, "stragglers (>") {
		t.Errorf("analyze text with slow=100 still flags stragglers: %.200s", body)
	}
}

// TestDriverSpanCosts checks a nested pipeline span whose outcome is
// reported on its SpanEnd (the k-means initialization scan): the end
// detail replaces the start detail, and the analysis, the report and
// the Chrome export all carry the span's wall time.
func TestDriverSpanCosts(t *testing.T) {
	mk := func(typ obs.EventType, us int64, f obs.Event) obs.Event {
		f.Type, f.Time = typ, at(us)
		return f
	}
	trees := Assemble([]obs.Event{
		mk(obs.SpanStart, 0, obs.Event{Span: "kmeans:w", Detail: "k=4"}),
		mk(obs.SpanStart, 100, obs.Event{Span: "kmeans-init:w/points", Parent: "kmeans:w", Detail: "scan"}),
		mk(obs.SpanEnd, 2600, obs.Event{Span: "kmeans-init:w/points", Detail: "files=1 records=10 bytes=185"}),
		mk(obs.JobSubmitted, 2700, obs.Event{Job: "kmeans-iter-000", Parent: "kmeans:w"}),
		mk(obs.JobFinished, 9000, obs.Event{Job: "kmeans-iter-000"}),
		mk(obs.SpanEnd, 10000, obs.Event{Span: "kmeans:w"}),
	})
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	a := AnalyzeTree(trees[0], Options{})
	want := SpanCost{Name: "kmeans-init:w/points", Detail: "files=1 records=10 bytes=185", WallUs: 2500, Pct: 25}
	if len(a.Spans) != 1 || a.Spans[0] != want {
		t.Fatalf("spans = %+v, want [%+v]", a.Spans, want)
	}
	var sb strings.Builder
	WriteReport(&sb, trees[0], a)
	if !strings.Contains(sb.String(), "span kmeans-init:w/points") || !strings.Contains(sb.String(), "25.0%  files=1 records=10 bytes=185") {
		t.Errorf("report does not show the init span:\n%s", sb.String())
	}
	found := false
	for _, ev := range BuildChrome(trees[0]).TraceEvents {
		if ev.Name == "kmeans-init:w/points" && ev.Dur != nil && *ev.Dur == 2500 && ev.Args["detail"] == want.Detail {
			found = true
		}
	}
	if !found {
		t.Error("chrome export has no init span with its wall time and detail")
	}
}
