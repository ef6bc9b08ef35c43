package mapreduce

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// This file implements the sort-based shuffle's merge machinery,
// mirroring Hadoop's intermediate-data path: each map task sorts every
// partition of its output at commit time (a "run", Hadoop's spill
// file), the shuffle performs a k-way merge of the pre-sorted runs per
// reduce partition, and the reducer consumes a streaming group
// iterator over the merged stream — no reduce-side re-sort, and no
// defensive copy for concurrent speculative attempts, which each get
// their own cursors over runs they share read-only.
//
// A run lives in memory or in a DFS file; one merge iterator handles
// any mix of the two.
//
// Every stage takes an optional key comparator (the job's MapKey
// RawCompare, Hadoop's RawComparator). A nil comparator means plain
// byte order on the key strings, kept branch-cheap for MergeRuns.

// sortRun stable-sorts one map-output partition by key, preserving
// emission order among equal keys (the property the merge's tie-break
// relies on for end-to-end determinism).
func sortRun(kvs []KV, cmp func(a, b string) int) {
	if cmp == nil {
		sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
		return
	}
	sort.SliceStable(kvs, func(i, j int) bool { return cmp(kvs[i].Key, kvs[j].Key) < 0 })
}

// run is one sorted run feeding a merge: an in-memory slice, or a
// file-backed run in the DFS when file.Path is set.
type run struct {
	mem  []KV
	file RunDesc
}

// records is the run's record count.
func (r run) records() int64 {
	if r.file.Path != "" {
		return r.file.Records
	}
	return int64(len(r.mem))
}

// bytes is the run's raw key+value byte count.
func (r run) bytes() int64 {
	if r.file.Path != "" {
		return r.file.Bytes
	}
	var b int64
	for _, kv := range r.mem {
		b += int64(len(kv.Key) + len(kv.Value))
	}
	return b
}

// runCursor is one run's read position inside the merge heap: cur is
// the run's current record, read from the unread tail of mem or from
// a file reader holding one fetch window. ord is the run's position in
// the input order; it breaks key ties so the merge is stable across
// runs (records of equal keys come out in map-task order, exactly as
// the concat-then-stable-sort shuffle produced them).
type runCursor struct {
	mem  []KV
	file *recordio.FileReader // nil for an in-memory run
	path string
	cur  KV
	ord  int
}

// advance loads the run's next record into cur, reporting false at
// the end of the run.
func (c *runCursor) advance() (bool, error) {
	if c.file == nil {
		if len(c.mem) == 0 {
			return false, nil
		}
		c.cur, c.mem = c.mem[0], c.mem[1:]
		return true, nil
	}
	k, v, ok, err := c.file.Next()
	if err != nil {
		return false, fmt.Errorf("spill run %s: %v", c.path, err)
	}
	c.cur = KV{Key: k, Value: v}
	return ok, nil
}

// runHeap is a min-heap of run cursors ordered by (current key, ord)
// under the given comparator (nil = byte order).
type runHeap struct {
	cursors []*runCursor
	cmp     func(a, b string) int
}

func (h *runHeap) Len() int { return len(h.cursors) }

func (h *runHeap) Less(i, j int) bool {
	ci, cj := h.cursors[i], h.cursors[j]
	ki, kj := ci.cur.Key, cj.cur.Key
	if h.cmp == nil {
		if ki != kj {
			return ki < kj
		}
	} else if c := h.cmp(ki, kj); c != 0 {
		return c < 0
	}
	return ci.ord < cj.ord
}

func (h *runHeap) Swap(i, j int) { h.cursors[i], h.cursors[j] = h.cursors[j], h.cursors[i] }

func (h *runHeap) Push(x any) { h.cursors = append(h.cursors, x.(*runCursor)) }

func (h *runHeap) Pop() any {
	old := h.cursors
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	h.cursors = old[:n-1]
	return x
}

// mergeIter streams the k-way merge of sorted runs. next has no error
// channel, so a failure to open or read a file-backed run stops the
// stream and is surfaced through Err; everything consumed from a
// stream whose Err is non-nil is suspect.
type mergeIter struct {
	h   runHeap
	err error
}

// newMergeIter opens a cursor on every non-empty run and primes its
// first record. Runs must already be sorted under cmp; fs serves the
// file-backed runs and may be nil when every run is in memory. Each
// iterator owns its cursors and fetch windows, so concurrent
// speculative attempts never share read state.
func newMergeIter(fs dfs.Store, runs []run, cmp func(a, b string) int) *mergeIter {
	m := &mergeIter{h: runHeap{cursors: make([]*runCursor, 0, len(runs)), cmp: cmp}}
	cursors := make([]runCursor, len(runs))
	for ord, r := range runs {
		c := &cursors[ord]
		c.mem, c.ord = r.mem, ord
		if r.file.Path != "" {
			f, err := openSpillRun(fs, r.file.Path)
			if err != nil {
				m.fail(err)
				return m
			}
			c.file, c.path = f, r.file.Path
		}
		ok, err := c.advance()
		if err != nil {
			m.fail(err)
			return m
		}
		if ok {
			m.h.cursors = append(m.h.cursors, c)
		}
	}
	heap.Init(&m.h)
	return m
}

// fail ends the stream with err.
func (m *mergeIter) fail(err error) {
	m.err = err
	m.h.cursors = nil
}

func (m *mergeIter) next() (KV, bool) {
	if len(m.h.cursors) == 0 {
		return KV{}, false
	}
	c := m.h.cursors[0]
	kv := c.cur
	ok, err := c.advance()
	switch {
	case err != nil:
		m.fail(err)
	case !ok:
		heap.Pop(&m.h)
	case len(m.h.cursors) > 1:
		// A lone run is already in order; only a real merge reorders.
		heap.Fix(&m.h, 0)
	}
	return kv, true
}

// Err reports the first run open or read error, if any.
func (m *mergeIter) Err() error { return m.err }

// openSpillRun opens one file-backed run for streaming through ranged
// DFS reads, holding one fetch window rather than the file.
func openSpillRun(fs dfs.Store, path string) (*recordio.FileReader, error) {
	size, err := fs.Size(path)
	if err != nil {
		return nil, fmt.Errorf("spill run %s: %v", path, err)
	}
	r, err := recordio.NewFileReader(size, func(off, n int64) ([]byte, error) {
		return fs.ReadRange(path, off, n)
	})
	if err != nil {
		return nil, fmt.Errorf("spill run %s: %v", path, err)
	}
	return r, nil
}

// MergeRuns merges pre-sorted runs into one sorted slice under plain
// byte order. Records with equal keys keep run order (and, within a
// run, the run's own order), so merging stable-sorted runs is
// kv-for-kv equivalent to concatenating the unsorted runs and
// stable-sorting the whole — the seed shuffle's behaviour, now at
// O(N log k) instead of O(N log N).
//
// When exactly one run is non-empty the result aliases it rather than
// copying; callers must treat the inputs as consumed and the output as
// read-only. Exported for benchmarks and downstream tooling.
func MergeRuns(runs [][]KV) []KV {
	rs := make([]run, len(runs))
	for i, r := range runs {
		rs[i].mem = r
	}
	return mergeRuns(rs, nil)
}

// mergeRuns drains the merge of in-memory runs into one slice under an
// optional custom key comparator, aliasing a lone non-empty run.
func mergeRuns(runs []run, cmp func(a, b string) int) []KV {
	var last []KV
	nonEmpty, total := 0, 0
	for _, r := range runs {
		if len(r.mem) > 0 {
			nonEmpty++
			total += len(r.mem)
			last = r.mem
		}
	}
	switch nonEmpty {
	case 0:
		return nil
	case 1:
		return last
	}
	out := make([]KV, 0, total)
	it := newMergeIter(nil, runs, cmp)
	for kv, ok := it.next(); ok; kv, ok = it.next() {
		out = append(out, kv)
	}
	return out
}

// groupIter turns a merged record stream into (key, values) groups,
// the unit a reducer consumes. It buffers only one group at a time,
// in one values slice reused across groups: a group's values are
// valid until the next call to next. The engine's only reducer,
// loweredReducer, decodes them into its own slice and keeps nothing.
// Group boundaries fall where the stream's comparator (nil = byte
// equality) says two adjacent keys differ.
type groupIter struct {
	it     *mergeIter
	cur    KV
	ok     bool
	values []string
}

func newGroupIter(it *mergeIter) *groupIter {
	g := &groupIter{it: it}
	g.cur, g.ok = it.next()
	return g
}

// next returns the next key and all its values. ok is false when the
// stream is exhausted.
func (g *groupIter) next() (key string, values []string, ok bool) {
	if !g.ok {
		return "", nil, false
	}
	key = g.cur.Key
	// Clear the previous group's strings so the reused array pins no
	// record past its group.
	clear(g.values)
	values = append(g.values[:0], g.cur.Value)
	for {
		g.cur, g.ok = g.it.next()
		if !g.ok || g.keyChanged(key) {
			g.values = values
			return key, values, true
		}
		values = append(values, g.cur.Value)
	}
}

func (g *groupIter) keyChanged(key string) bool {
	if cmp := g.it.h.cmp; cmp != nil {
		return cmp(g.cur.Key, key) != 0
	}
	return g.cur.Key != key
}
