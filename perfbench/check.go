package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/mapreduce"
	"repro/internal/privacy"
	"repro/internal/recordio"
	"repro/internal/rtree"
)

// refs maps a corpus key ("geolife/scale8/seed1") to the output digest
// of every stage run over it.
type refs map[string]map[string]string

// loadRefs reads the pinned references. A missing file is an empty set.
func loadRefs(path string) (refs, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return refs{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var r refs
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return r, nil
}

// saveRef merges one corpus's digests into the reference file.
func saveRef(path, key string, digests map[string]string) error {
	r, err := loadRefs(path)
	if err != nil {
		return err
	}
	if r[key] == nil {
		r[key] = map[string]string{}
	}
	for stage, d := range digests {
		r[key][stage] = d
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// referenceInProcess runs the workload's pipeline once on the
// in-process testbed and takes its digests as the reference.
func referenceInProcess(b *bench, fx *fixture, stages []stage) (map[string]string, error) {
	d, err := fx.deploy(nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	return referenceRun(b, fx, d, stages)
}

// referenceTCP computes the tcp-cluster reference on the in-process
// testbed over the same corpus: RPC output must match it byte for byte.
func referenceTCP(b *bench, fx *fixture, stages []stage) (map[string]string, error) {
	ds := geolife.Generate(geolife.Scaled(b.cfg.seed, b.cfg.scale))
	c, fs, err := inProcess(b.cfg.seed, geolifeChunk(b.cfg.scale))
	if err != nil {
		return nil, err
	}
	if err := geolife.WriteRecordsConcat(fs, "data", ds, 2); err != nil {
		return nil, err
	}
	ip := inProcessFixture(c, fs, []string{"data"})
	ip.traces, ip.refKey = fx.traces, fx.refKey
	d, err := ip.deploy(nil)
	if err != nil {
		return nil, err
	}
	return referenceRun(b, ip, d, stages)
}

func referenceRun(b *bench, fx *fixture, d *deployment, stages []stage) (map[string]string, error) {
	st := newState(b, fx, d, nil)
	out := map[string]string{}
	for _, s := range stages {
		if err := s.run(st); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		got, err := s.digest(st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out[s.name] = got
	}
	return out, d.cleanup()
}

func hexSum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

// kmeansDigest covers the centroids at full float64 precision.
func kmeansDigest(cs []geo.Point, sizes []int, iterations int) string {
	h := sha256.New()
	fmt.Fprintf(h, "iterations %d\n", iterations)
	for i, c := range cs {
		size := 0
		if i < len(sizes) {
			size = sizes[i]
		}
		fmt.Fprintf(h, "%d %016x %016x %d\n", i, math.Float64bits(c.Lat), math.Float64bits(c.Lon), size)
	}
	return hexSum(h)
}

// outputDigest covers a job's output records, order-independent.
func outputDigest(e *mapreduce.Engine, dir string) (string, error) {
	kvs, err := e.ReadOutput(dir)
	if err != nil {
		return "", err
	}
	lines := make([]string, len(kvs))
	for i, kv := range kvs {
		lines[i] = fmt.Sprintf("%q\t%q", kv.Key, kv.Value)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hexSum(h), nil
}

// djDigest covers the clusters, the per-stage trace counts, and the
// entry count and height of the R-tree DJ-Cluster indexed.
// DJClusterResult does not expose that tree, so its figures come from
// a rebuild of the phase-2 output: a defect in the program's own
// driver-side merge or in how it hands the tree on cannot fail here.
func djDigest(e *mapreduce.Engine, res *gepeto.DJClusterResult, work string) (string, error) {
	tree, err := rebuildRTree(e, work+"/rtree/phase2")
	if err != nil {
		return "", err
	}
	if int64(tree.Len()) != res.AfterDedup {
		return "", fmt.Errorf("R-tree holds %d entries, preprocessing kept %d traces", tree.Len(), res.AfterDedup)
	}
	h := sha256.New()
	fmt.Fprintf(h, "rtree %d %d\n", tree.Len(), tree.Height())
	fmt.Fprintf(h, "traces %d %d %d noise %d\n", res.InputTraces, res.AfterSpeedFilter, res.AfterDedup, res.Noise)
	for _, c := range res.Clusters {
		fmt.Fprintf(h, "%s %s %016x %016x %s\n", c.ID, c.User,
			math.Float64bits(c.Centroid.Lat), math.Float64bits(c.Centroid.Lon), strings.Join(c.Members, ","))
	}
	return hexSum(h), nil
}

// rebuildRTree repeats the R-tree build's final, driver-side phase
// from its partition subtrees (left in DFS by DJClusterMR): subtrees
// bulk-loaded in partition order and merged.
func rebuildRTree(e *mapreduce.Engine, dir string) (*rtree.Tree, error) {
	kvs, err := e.ReadOutput(dir)
	if err != nil {
		return nil, err
	}
	type part struct {
		idx     int64
		entries []rtree.Entry
	}
	parts := make([]part, 0, len(kvs))
	for _, kv := range kvs {
		idx, err := (recordio.Int64{}).Decode(kv.Key)
		if err != nil {
			return nil, err
		}
		p := part{idx: idx}
		if kv.Value != "" {
			pts, err := (recordio.IDPointList{}).Decode(kv.Value)
			if err != nil {
				return nil, err
			}
			for _, v := range pts {
				p.entries = append(p.entries, rtree.Entry{ID: v.ID, Point: v.P})
			}
		}
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].idx < parts[j].idx })
	subtrees := make([]*rtree.Tree, len(parts))
	for i, p := range parts {
		subtrees[i] = rtree.BulkLoad(p.entries, rtree.DefaultMaxEntries)
	}
	return rtree.Merge(rtree.DefaultMaxEntries, subtrees...), nil
}

func poiDigest(pois []privacy.POI) string {
	h := sha256.New()
	for _, p := range pois {
		fmt.Fprintf(h, "%s %016x %016x %d %d %d %v\n", p.User,
			math.Float64bits(p.Center.Lat), math.Float64bits(p.Center.Lon),
			p.Visits, p.NightVisits, p.WorkHourVisits, p.Label)
	}
	return hexSum(h)
}

func mmcDigest(known, anon map[string]*privacy.MMC) string {
	h := sha256.New()
	for _, side := range []map[string]*privacy.MMC{known, anon} {
		for _, m := range sortedChains(side) {
			fmt.Fprintln(h, privacy.MarshalMMC(m))
		}
		fmt.Fprintln(h, "--")
	}
	return hexSum(h)
}

func linkDigest(r *privacy.LinkingResult) string {
	h := sha256.New()
	users := make([]string, 0, len(r.Matches))
	for u := range r.Matches {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		fmt.Fprintf(h, "%s %s\n", u, r.Matches[u])
	}
	fmt.Fprintf(h, "correct %d of %d\n", r.Correct, r.Total)
	return hexSum(h)
}
