package obs

import (
	"sort"
	"sync"
	"time"
)

// PhaseState is the live view of one job phase.
type PhaseState struct {
	Name    string        `json:"name"`
	Started time.Time     `json:"started"`
	Ended   time.Time     `json:"ended"`
	Wall    time.Duration `json:"wall_ns"`
	Done    bool          `json:"done"`
}

// AttemptState is the live view of one task attempt.
type AttemptState struct {
	Task     string    `json:"task"`
	Phase    string    `json:"phase"`
	Attempt  int       `json:"attempt"`
	Node     string    `json:"node"`
	Started  time.Time `json:"started"`
	Ended    time.Time `json:"ended"`
	Locality string    `json:"locality,omitempty"`
	Backup   bool      `json:"backup,omitempty"`
	// Status is "running", "succeeded", "failed" or "killed".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// JobState is the live jobtracker view of one job or pipeline span.
type JobState struct {
	// Name is the job name (or span ID for pipeline spans).
	Name string `json:"name"`
	// Kind is "job" or "span".
	Kind string `json:"kind"`
	// Parent is the enclosing span ID, if any.
	Parent    string    `json:"parent,omitempty"`
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished"`
	// State is "running", "succeeded" or "failed".
	State  string       `json:"state"`
	Error  string       `json:"error,omitempty"`
	Detail string       `json:"detail,omitempty"`
	Phases []PhaseState `json:"phases,omitempty"`
	// Attempts counts are summarized; the full attempt list is served
	// on the per-job endpoint.
	RunningAttempts  int `json:"running_attempts"`
	FinishedAttempts int `json:"finished_attempts"`

	attempts []AttemptState
}

// Tracker is a Sink maintaining live job state from lifecycle events —
// the data behind the jobtracker status pages.
type Tracker struct {
	mu    sync.Mutex
	jobs  map[string]*JobState
	order []string
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{jobs: make(map[string]*JobState)}
}

func (t *Tracker) stateLocked(name, kind string) *JobState {
	js, ok := t.jobs[name]
	if !ok {
		js = &JobState{Name: name, Kind: kind, State: "running"}
		t.jobs[name] = js
		t.order = append(t.order, name)
	}
	return js
}

// Emit implements Sink.
func (t *Tracker) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Type {
	case SpanStart:
		js := t.stateLocked(e.Span, "span")
		js.Parent = e.Parent
		js.Submitted = e.Time
		js.Detail = e.Detail
	case SpanEnd:
		js := t.stateLocked(e.Span, "span")
		js.Finished = e.Time
		js.State = "succeeded"
		if e.Err != "" {
			js.State, js.Error = "failed", e.Err
		}
		if e.Detail != "" {
			js.Detail = e.Detail
		}
	case JobSubmitted:
		js := t.stateLocked(e.Job, "job")
		js.Parent = e.Parent
		js.Submitted = e.Time
		js.Detail = e.Detail
	case JobFinished:
		js := t.stateLocked(e.Job, "job")
		js.Finished = e.Time
		js.State = "succeeded"
		if e.Err != "" {
			js.State, js.Error = "failed", e.Err
		}
	case PhaseStart:
		js := t.stateLocked(e.Job, "job")
		js.Phases = append(js.Phases, PhaseState{Name: e.Phase, Started: e.Time})
	case PhaseEnd:
		js := t.stateLocked(e.Job, "job")
		for i := len(js.Phases) - 1; i >= 0; i-- {
			if js.Phases[i].Name == e.Phase && !js.Phases[i].Done {
				js.Phases[i].Ended = e.Time
				js.Phases[i].Wall = e.Dur
				js.Phases[i].Done = true
				break
			}
		}
	case AttemptStarted:
		js := t.stateLocked(e.Job, "job")
		js.attempts = append(js.attempts, AttemptState{
			Task: e.Task, Phase: e.Phase, Attempt: e.Attempt, Node: e.Node,
			Started: e.Time, Locality: e.Locality, Backup: e.Backup, Status: "running",
		})
		js.RunningAttempts++
	case AttemptSucceeded, AttemptFailed, AttemptKilled:
		js := t.stateLocked(e.Job, "job")
		status := map[EventType]string{
			AttemptSucceeded: "succeeded",
			AttemptFailed:    "failed",
			AttemptKilled:    "killed",
		}[e.Type]
		for i := len(js.attempts) - 1; i >= 0; i-- {
			a := &js.attempts[i]
			if a.Task == e.Task && a.Attempt == e.Attempt && a.Node == e.Node && a.Status == "running" {
				a.Status = status
				a.Ended = e.Time
				a.Error = e.Err
				if e.Locality != "" {
					a.Locality = e.Locality
				}
				js.RunningAttempts--
				js.FinishedAttempts++
				break
			}
		}
	}
}

// Jobs returns a snapshot of every tracked job and span, in first-seen
// order (submission order).
func (t *Tracker) Jobs() []JobState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]JobState, 0, len(t.order))
	for _, name := range t.order {
		js := *t.jobs[name]
		js.Phases = append([]PhaseState(nil), js.Phases...)
		js.attempts = nil
		out = append(out, js)
	}
	return out
}

// Job returns the detailed state of one job, including its attempts.
func (t *Tracker) Job(name string) (JobState, []AttemptState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	js, ok := t.jobs[name]
	if !ok {
		return JobState{}, nil, false
	}
	cp := *js
	cp.Phases = append([]PhaseState(nil), js.Phases...)
	attempts := append([]AttemptState(nil), js.attempts...)
	cp.attempts = nil
	sort.SliceStable(attempts, func(i, j int) bool { return attempts[i].Started.Before(attempts[j].Started) })
	return cp, attempts, true
}
