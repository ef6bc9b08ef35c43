// Job serialization for out-of-process executors. A Job carries
// function fields (mapper/reducer factories, partitioner, comparator)
// that cannot cross a process boundary, so remote execution uses a
// kind registry: the driver names the job's kind, the wire form
// carries the name plus the job's plain data, and the worker binary —
// which registered the same kind at init — re-materialises the
// functions on its side. The same pattern as Hadoop shipping class
// names in the JobConf and instantiating them tasktracker-side.

package mapreduce

import (
	"fmt"
	"sync"
)

// JobKind is the functional surface of a job family: everything a
// worker needs beyond the per-job data in JobWire. KindOf extracts one
// from a built job.
type JobKind struct {
	funcs jobFuncs
}

var (
	kindMu sync.RWMutex
	kinds  = make(map[string]JobKind)
)

// RegisterKind makes a job kind available for remote execution under
// the given name. Call it from an init function (or other
// start-of-world code) in a package both the driver and the worker
// binary import; registering a duplicate name panics, like
// gob.Register.
func RegisterKind(name string, k JobKind) {
	if name == "" {
		panic("mapreduce: RegisterKind with empty name")
	}
	if k.funcs.newMapper == nil {
		panic(fmt.Sprintf("mapreduce: RegisterKind %q without a mapper", name))
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kinds[name]; dup {
		panic(fmt.Sprintf("mapreduce: RegisterKind %q registered twice", name))
	}
	kinds[name] = k
}

// lookupKind returns the registered kind for name.
func lookupKind(name string) (JobKind, bool) {
	kindMu.RLock()
	defer kindMu.RUnlock()
	k, ok := kinds[name]
	return k, ok
}

// KindOf extracts a job's functional surface as a registrable kind —
// the usual way a driver registers a typed job template:
//
//	mapreduce.RegisterKind("myjob", mapreduce.KindOf(template.Build()))
func KindOf(job *Job) JobKind {
	return JobKind{funcs: job.jobFuncs}
}

// JobWire is the process-crossing form of a Job: its plain data plus
// the kind name standing in for the function fields. All fields gob-
// encode.
type JobWire struct {
	Name        string
	Kind        string
	NumReducers int
	// HasCombiner records whether the driver's job enabled the kind's
	// combiner (a kind may register one that individual jobs turn off,
	// as k-means does behind KMeansOptions.UseCombiner).
	HasCombiner bool
	Conf        map[string]string
	Cache       map[string][]byte
	// ShuffleBudget is the job's per-task spill budget
	// (Job.MaxShuffleBytes).
	ShuffleBudget int64
	CompressSpill bool
}

// Wire converts the job for shipping to a worker. It fails when the
// job has no kind, or the kind is not registered in this binary —
// catching a typo driver-side beats a per-task failure worker-side.
func (j *Job) Wire() (JobWire, error) {
	if j.Kind == "" {
		return JobWire{}, fmt.Errorf("mapreduce: job %s has no Kind; remote execution needs a registered kind", j.Name)
	}
	if _, ok := lookupKind(j.Kind); !ok {
		return JobWire{}, fmt.Errorf("mapreduce: job %s: kind %q is not registered", j.Name, j.Kind)
	}
	return JobWire{
		Name:          j.Name,
		Kind:          j.Kind,
		NumReducers:   j.NumReducers,
		HasCombiner:   j.newCombiner != nil,
		Conf:          j.Conf,
		Cache:         j.Cache,
		ShuffleBudget: j.MaxShuffleBytes,
		CompressSpill: j.CompressSpill,
	}, nil
}

// Materialize rebuilds a runnable Job worker-side from the registry.
func (w JobWire) Materialize() (*Job, error) {
	k, ok := lookupKind(w.Kind)
	if !ok {
		return nil, fmt.Errorf("mapreduce: job kind %q is not registered in this binary", w.Kind)
	}
	job := &Job{
		Name:            w.Name,
		Kind:            w.Kind,
		NumReducers:     w.NumReducers,
		Conf:            w.Conf,
		Cache:           w.Cache,
		MaxShuffleBytes: w.ShuffleBudget,
		CompressSpill:   w.CompressSpill,
		jobFuncs:        k.funcs,
	}
	if !w.HasCombiner {
		job.newCombiner = nil
	} else if job.newCombiner == nil {
		return nil, fmt.Errorf("mapreduce: job %s uses a combiner but kind %q registered none", w.Name, w.Kind)
	}
	return job, nil
}
