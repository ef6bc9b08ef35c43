// Package obs is the observability layer of the MapReduce engine: a
// structured event bus carrying typed job/phase/task/attempt lifecycle
// events, a metrics registry with Prometheus text-format exposition, a
// job-history store persisting finished-job records (the Hadoop
// job-history server role), a live jobtracker-style status tracker and
// HTTP server, and an ASCII task-attempt timeline renderer.
//
// The paper's entire contribution is measured — per-job wall times,
// speedup curves and phase breakdowns on Grid'5000 (§V-§VII) — and the
// cluster deployments it ran on expose exactly this through the Hadoop
// jobtracker web UI and job-history server. This package provides the
// equivalent measurement substrate for the simulated stack.
//
// The package deliberately imports no other internal package so every
// layer (dfs, mapreduce, gepeto, core) can depend on it without
// cycles; storage backends are supplied through the small FS interface
// that *dfs.FileSystem satisfies structurally.
package obs

import (
	"sync"
	"time"
)

// EventType enumerates the lifecycle events the engine and the
// algorithm drivers emit.
type EventType string

// Event types. Jobs contain phases, phases contain tasks, tasks are
// executed by one or more attempts; spans group jobs into pipelines
// (a k-means run, DJ-Cluster's three phases, the R-tree build).
const (
	// JobSubmitted marks a job entering the engine.
	JobSubmitted EventType = "job_submitted"
	// JobFinished marks a job leaving the engine (Err set on failure).
	JobFinished EventType = "job_finished"
	// PhaseStart/PhaseEnd bracket the map, shuffle and reduce phases.
	PhaseStart EventType = "phase_start"
	PhaseEnd   EventType = "phase_end"
	// TaskScheduled marks a task attempt being assigned to a node slot.
	TaskScheduled EventType = "task_scheduled"
	// AttemptStarted marks a task attempt beginning execution.
	AttemptStarted EventType = "attempt_started"
	// AttemptSucceeded marks the winning attempt of a task.
	AttemptSucceeded EventType = "attempt_succeeded"
	// AttemptFailed marks a failed attempt (Err carries the reason).
	AttemptFailed EventType = "attempt_failed"
	// AttemptKilled marks a speculative attempt abandoned because a
	// parallel attempt of the same task won (Hadoop killing the slower
	// speculative attempt). Emitted exactly once per losing attempt.
	AttemptKilled EventType = "attempt_killed"
	// SpanStart/SpanEnd bracket driver-level pipeline spans (k-means
	// iterations, DJ-Cluster phases, R-tree build).
	SpanStart EventType = "span_start"
	SpanEnd   EventType = "span_end"
	// WorkerJoined/WorkerLost mark out-of-process worker membership at
	// the jobtracker (registration, and loss via kill or heartbeat
	// timeout — Err carries the loss reason). Node identifies the
	// worker's cluster node; Job is empty (membership outlives jobs).
	WorkerJoined EventType = "worker_joined"
	WorkerLost   EventType = "worker_lost"
	// WorkerTaskDone marks a task attempt finishing on a remote worker,
	// as reported by the worker's own event stream (Err set on failure).
	// Time is stamped by the worker's clock and Dur is the worker-side
	// execution time, so the jobtracker must clock-correct it before
	// trace assembly.
	WorkerTaskDone EventType = "worker_task_done"
	// RPCRoundTrip marks the driver-observed assign→complete round trip
	// of one remote task attempt: Time is when the completion report
	// arrived, Dur spans from the assignment RPC being sent. The gap
	// between this span and the worker-side WorkerTaskDone execution
	// time is the coordination overhead of the out-of-process backend.
	RPCRoundTrip EventType = "rpc_roundtrip"
)

// Event is one structured lifecycle event. The identity fields form a
// span hierarchy: Parent → Job → Phase → Task → Attempt, so a whole
// multi-job pipeline reconstructs as one tree.
type Event struct {
	// Type is the event kind.
	Type EventType
	// Time is the event timestamp. The bus stamps it with time.Now()
	// (monotonic-clock backed) if left zero.
	Time time.Time
	// Job names the owning job; empty for pure pipeline-span events.
	Job string
	// Parent is the enclosing span ID ("" for root jobs/spans).
	Parent string
	// Span is the span ID for SpanStart/SpanEnd events.
	Span string
	// Phase is "map", "shuffle" or "reduce" for phase/task events.
	Phase string
	// Task identifies the task ("map-0007") for attempt events.
	Task string
	// Attempt is the 0-based attempt number.
	Attempt int
	// Node is the executing cluster node.
	Node string
	// Locality is "data-local", "rack-local" or "off-rack" when known.
	Locality string
	// Backup marks speculative (backup) attempts.
	Backup bool
	// Dur carries a duration where meaningful (attempt run time on
	// terminal attempt events, phase wall on PhaseEnd, job wall on
	// JobFinished).
	Dur time.Duration
	// Value carries an event-specific magnitude (shuffle bytes on the
	// shuffle PhaseEnd).
	Value int64
	// Err is the failure reason for AttemptFailed / failed JobFinished.
	Err string
	// Detail is free-form context ("maps=12 reducers=4"). On a SpanEnd
	// a non-empty Detail replaces the one given at the SpanStart, for
	// outcomes known only at the end (records and bytes written).
	Detail string
	// Parts is the per-reduce-partition shuffle summary, set on the
	// shuffle PhaseEnd event. It is the raw material for skew analysis:
	// the DJ-Cluster merge funnelling everything into one reducer shows
	// up here as one partition holding all the records.
	Parts []PartStat
}

// PartStat summarises one reduce partition's share of the shuffle: how
// many pre-sorted map-output runs were merged into it, the record and
// byte volume routed to it, and the merge wall time.
type PartStat struct {
	// Part is the 0-based reduce partition index.
	Part int `json:"part"`
	// Runs is the number of map-output runs merged.
	Runs int64 `json:"runs"`
	// Records and Bytes are the merged record count and byte volume.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// DurUs is the partition's merge wall time in microseconds.
	DurUs int64 `json:"dur_us"`
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls: the engine emits from many worker goroutines.
type Sink interface {
	Emit(Event)
}

// Bus fans events out to attached sinks. A nil *Bus is a valid,
// always-inactive bus: every method is a cheap no-op, which is the
// fast path the engine relies on when no observer is attached.
type Bus struct {
	mu    sync.RWMutex
	sinks []Sink
}

// NewBus creates a bus with the given sinks attached.
func NewBus(sinks ...Sink) *Bus {
	b := &Bus{}
	b.sinks = append(b.sinks, sinks...)
	return b
}

// Attach adds a sink to the bus.
func (b *Bus) Attach(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	b.sinks = append(b.sinks, s)
	b.mu.Unlock()
}

// Active reports whether any sink is attached. Hot paths use it to
// skip event construction entirely.
func (b *Bus) Active() bool {
	if b == nil {
		return false
	}
	b.mu.RLock()
	n := len(b.sinks)
	b.mu.RUnlock()
	return n > 0
}

// Emit delivers the event to every attached sink, stamping Time if
// unset. Safe on a nil bus.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	b.mu.RLock()
	sinks := b.sinks
	b.mu.RUnlock()
	if len(sinks) == 0 {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	for _, s := range sinks {
		s.Emit(e)
	}
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Recorder is a Sink that buffers every event, for tests and ad-hoc
// tracing. Safe for concurrent use.
//
// Long-lived processes set MaxJobs to bound the buffer: once more than
// MaxJobs jobs have finished, the oldest finished job's events are
// dropped. Events of jobs that are still running — and events carrying
// no job at all (pipeline spans) — are never pruned, so an in-flight
// job's trace stays complete no matter how many jobs finish around it.
type Recorder struct {
	// MaxJobs, when > 0, bounds retention to the events of the most
	// recent MaxJobs finished jobs (plus everything still running).
	MaxJobs int

	mu       sync.Mutex
	events   []Event
	finished []string // finished job names, oldest first
}

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	if r.MaxJobs > 0 && e.Type == JobFinished && e.Job != "" {
		r.finished = append(r.finished, e.Job)
		for len(r.finished) > r.MaxJobs {
			r.evictLocked(r.finished[0])
			r.finished = r.finished[1:]
		}
	}
	r.mu.Unlock()
}

// evictLocked drops every buffered event of one finished job.
func (r *Recorder) evictLocked(job string) {
	kept := r.events[:0]
	for _, e := range r.events {
		if e.Job != job {
			kept = append(kept, e)
		}
	}
	r.events = kept
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// ByType returns the recorded events of one type, in arrival order.
func (r *Recorder) ByType(t EventType) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}
