package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster/rpc"
	"repro/internal/obs"
)

// span is one timed interval of a traced run. Spans of one pipeline
// run share Run; Parent is the ID of the span that caused this one
// (0 for the run's root).
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Layers a span can belong to, outermost first.
const (
	layerRun     = "bench"             // one pipeline run
	layerStage   = "gepeto"            // a public stage call
	layerJob     = "mapreduce.job"     // one MapReduce job
	layerPhase   = "mapreduce.phase"   // map, shuffle or reduce
	layerAttempt = "mapreduce.attempt" // one task attempt
	layerRound   = "rpc.roundtrip"     // assign→complete of a remote attempt
	layerExec    = "rpc.exec"          // worker-side execution of it
	layerCall    = "rpc.call"          // one Transport.Call
)

// callStat is one Transport.Call's latency and outcome.
type callStat struct {
	method       string
	dur          time.Duration
	transportErr bool
}

// event is a bus event tagged with the stage span open when it arrived.
type event struct {
	obs.Event
	stage int
}

// tracer collects the spans of the traced runs in memory: it records
// the benchmark's own spans around every stage call and every
// Transport.Call, and turns the engine's job, phase and attempt events
// (and the RPC backend's round-trip and worker-execution events) into
// child spans when a run ends. Nothing is added inside the program.
type tracer struct {
	bus   *obs.Bus
	epoch time.Time
	name  string

	mu     sync.Mutex
	active bool
	runN   int
	runID  string
	root   int
	stage  int
	nextID int
	spans  []span // every finished run's spans
	cur    []span // the current run's benchmark spans
	events []event
	calls  []callStat
	// perRun holds each traced run's span-derived figures.
	perRun []map[string]float64
}

func newTracer(workload string, seed int64) *tracer {
	t := &tracer{epoch: time.Now(), name: fmt.Sprintf("%s-seed%d", workload, seed)}
	t.bus = obs.NewBus(obs.SinkFunc(t.emit))
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) emit(e obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active {
		t.events = append(t.events, event{Event: e, stage: t.stage})
	}
}

func (t *tracer) open(layer, name string, parent int) int {
	t.nextID++
	t.cur = append(t.cur, span{Run: t.runID, ID: t.nextID, Parent: parent, Layer: layer, Name: name, Start: t.now()})
	return t.nextID
}

func (t *tracer) close(id int) {
	for i := len(t.cur) - 1; i >= 0; i-- {
		if t.cur[i].ID == id {
			t.cur[i].End = t.now()
			return
		}
	}
}

func (t *tracer) beginRun() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runN++
	t.runID = fmt.Sprintf("%s-run%03d", t.name, t.runN)
	t.nextID, t.cur, t.events, t.calls = 0, nil, nil, nil
	t.root = t.open(layerRun, "pipeline", 0)
	t.stage = t.root
	t.active = true
}

func (t *tracer) beginStage(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stage = t.open(layerStage, name, t.root)
	return t.stage
}

func (t *tracer) endStage(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(id)
	t.stage = t.root
}

// endRun closes the run's root span, assembles the event spans and
// computes the run's span-derived figures.
func (t *tracer) endRun(wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(t.root)
	t.active = false
	spans := append(t.cur, t.eventSpans()...)
	m := spanFigures(spans, t.calls)
	m["wall_s"] = wall.Seconds()
	t.perRun = append(t.perRun, m)
	t.spans = append(t.spans, spans...)
}

// eventSpans pairs the run's bus events into job, phase, attempt and
// RPC spans, parented job → stage, phase → job, attempt → phase and
// round trip / worker execution → attempt.
func (t *tracer) eventSpans() []span {
	var out []span
	openJobs := map[string]int{}     // job → index in out
	openPhases := map[string]int{}   // job|phase → index
	openAttempts := map[string]int{} // job|task|attempt → index
	jobID := map[string]int{}
	phaseID := map[string]int{}
	attemptID := map[string]int{}
	roundID := map[string]int{} // job|task|attempt → round-trip span ID
	execAt := map[string]int{}  // job|task|attempt → execution span index
	add := func(layer, name string, parent int, start, end int64) int {
		t.nextID++
		out = append(out, span{Run: t.runID, ID: t.nextID, Parent: parent, Layer: layer, Name: name, Start: start, End: end})
		return len(out) - 1
	}
	at := func(e obs.Event) int64 { return int64(e.Time.Sub(t.epoch)) }
	for _, e := range t.events {
		ak := e.Job + "|" + e.Task + "|" + fmt.Sprint(e.Attempt)
		pk := e.Job + "|" + e.Phase
		switch e.Type {
		case obs.JobSubmitted:
			i := add(layerJob, e.Job, e.stage, at(e.Event), 0)
			openJobs[e.Job], jobID[e.Job] = i, out[i].ID
		case obs.JobFinished:
			if i, ok := openJobs[e.Job]; ok {
				out[i].End = at(e.Event)
				delete(openJobs, e.Job)
			}
		case obs.PhaseStart:
			i := add(layerPhase, e.Phase, jobID[e.Job], at(e.Event), 0)
			openPhases[pk], phaseID[pk] = i, out[i].ID
		case obs.PhaseEnd:
			if i, ok := openPhases[pk]; ok {
				out[i].End = at(e.Event)
				delete(openPhases, pk)
			}
		case obs.AttemptStarted:
			i := add(layerAttempt, e.Task, phaseID[pk], at(e.Event), 0)
			openAttempts[ak], attemptID[ak] = i, out[i].ID
		case obs.AttemptSucceeded, obs.AttemptFailed, obs.AttemptKilled:
			if i, ok := openAttempts[ak]; ok {
				out[i].End = at(e.Event)
				delete(openAttempts, ak)
			}
		case obs.RPCRoundTrip:
			i := add(layerRound, e.Task, attemptID[ak], at(e.Event)-int64(e.Dur), at(e.Event))
			roundID[ak] = out[i].ID
		case obs.WorkerTaskDone:
			execAt[ak] = add(layerExec, e.Task, attemptID[ak], at(e.Event)-int64(e.Dur), at(e.Event))
		}
	}
	// The worker reports its execution before the completion that ends
	// the round trip, so execution spans are re-parented afterwards.
	for ak, i := range execAt {
		if id, ok := roundID[ak]; ok {
			out[i].Parent = id
		}
	}
	// Intervals left open (a failed run) end with the run.
	end := t.now()
	var kept []span
	for _, s := range out {
		if s.End == 0 {
			s.End = end
		}
		kept = append(kept, s)
	}
	return kept
}

// timedTransport is the timing rpc.Transport the traced tcp-cluster
// deployment hands to the jobtracker and the workers.
type timedTransport struct {
	inner rpc.Transport
	t     *tracer
}

func (t *tracer) transport(inner rpc.Transport) rpc.Transport {
	return &timedTransport{inner: inner, t: t}
}

func (tt *timedTransport) Call(addr, method string, args, reply any) error {
	t := tt.t
	start := t.now()
	err := tt.inner.Call(addr, method, args, reply)
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active {
		t.nextID++
		t.cur = append(t.cur, span{Run: t.runID, ID: t.nextID, Parent: t.stage, Layer: layerCall, Name: method, Start: start, End: end})
		t.calls = append(t.calls, callStat{method: method, dur: time.Duration(end - start), transportErr: rpc.IsTransportError(err)})
	}
	return err
}

// rpcMethods are the calls whose latency the benchmark reports.
var rpcMethods = []string{"worker.assign", "jt.complete", "jt.heartbeat", "dfs.read", "dfs.create", "dfs.size"}

// spanFigures derives one run's per-layer figures from its spans:
// each layer's self time, the k-means initialisation time, the RPC
// call latencies and the coordination share of remote attempts.
func spanFigures(spans []span, calls []callStat) map[string]float64 {
	m := map[string]float64{}
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		self := s.dur() - covered(s, children[s.ID])
		m["self."+selfName(s.Layer)] += self.Seconds()
	}
	// k-means initialisation: from the KMeansMR call to its first job.
	for _, s := range spans {
		if s.Layer != layerStage || s.Name != "kmeans" {
			continue
		}
		first := int64(-1)
		for _, c := range children[s.ID] {
			if c.Layer == layerJob && (first < 0 || c.Start < first) {
				first = c.Start
			}
		}
		if first >= 0 {
			m["gepeto.kmeans_init_s"] += time.Duration(first - s.Start).Seconds()
		}
	}
	// Coordination share of remote attempts.
	var round, exec time.Duration
	for _, s := range spans {
		switch s.Layer {
		case layerRound:
			round += s.dur()
		case layerExec:
			exec += s.dur()
		}
	}
	if round > 0 {
		m["rpc.coord_frac"] = (round - exec).Seconds() / round.Seconds()
	}
	byMethod := map[string][]float64{}
	for _, c := range calls {
		byMethod[c.method] = append(byMethod[c.method], float64(c.dur)/float64(time.Millisecond))
		if c.transportErr {
			m["rpc.transport_errors"]++
		}
	}
	for _, meth := range rpcMethods {
		ds := byMethod[meth]
		m["rpc."+meth+".calls"] = float64(len(ds))
		m["rpc."+meth+".p50_ms"] = quantile(ds, 0.50)
		m["rpc."+meth+".p99_ms"] = quantile(ds, 0.99)
	}
	return m
}

// covered is how much of s's interval its children's intervals cover
// (their union, clipped to s).
func covered(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

// selfName maps a layer to its self-time metric suffix.
func selfName(layer string) string {
	switch layer {
	case layerRun:
		return "bench_s"
	case layerStage:
		return "gepeto_s"
	case layerJob:
		return "mapreduce_job_s"
	case layerPhase:
		return "mapreduce_phase_s"
	case layerAttempt:
		return "mapreduce_attempt_s"
	case layerRound:
		return "rpc_roundtrip_s"
	case layerExec:
		return "rpc_exec_s"
	default:
		return "rpc_call_s"
	}
}

// writeSpans writes every traced run's spans to <dir>/<workload>-seed<N>.json.
func (t *tracer) writeSpans(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.name+".json"), data, 0o644)
}
