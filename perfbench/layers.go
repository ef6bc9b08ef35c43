package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/mapreduce"
)

// endToEndMetrics names every end-to-end metric with its unit; they
// come from untraced runs. perLayerMetrics does the same for the
// per-layer metrics of a traced invocation.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"}, {"traces_per_s", "1/s"}, {"iter_p50_ms", "ms"}, {"cpu_s", "s"},
	{"alloc_mib", "MiB"}, {"peak_rss_mib", "MiB"}, {"setup_s", "s"},
}

type metricDef struct{ name, unit string }

func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"gepeto.kmeans_init_s", "s"}, {"gepeto.driver_s", "s"},
		{"gepeto.kmeans_s", "s"}, {"gepeto.sampling_s", "s"}, {"gepeto.djcluster_s", "s"},
		{"mapreduce.map_s", "s"}, {"mapreduce.shuffle_s", "s"}, {"mapreduce.reduce_s", "s"},
		{"mapreduce.map_task_p50_ms", "ms"}, {"mapreduce.map_task_p99_ms", "ms"},
		{"mapreduce.slot_busy_frac", "ratio"}, {"mapreduce.task_attempts", "count"},
		{"mapreduce.failed_attempts", "count"}, {"mapreduce.data_local_frac", "ratio"},
		{"mapreduce.map_output_records", "count"}, {"mapreduce.combine_out_in_ratio", "ratio"},
		{"mapreduce.spill_files", "count"}, {"mapreduce.runs_merged", "count"},
		{"recordio.spill_raw_to_stored", "ratio"}, {"recordio.input_bytes_per_trace", "B"},
		{"dfs.bytes_read", "B"}, {"dfs.bytes_written", "B"}, {"dfs.chunks_read", "count"},
	}
	for _, m := range rpcMethods {
		defs = append(defs, metricDef{"rpc." + m + ".calls", "count"},
			metricDef{"rpc." + m + ".p50_ms", "ms"}, metricDef{"rpc." + m + ".p99_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"rpc.transport_errors", "count"}, metricDef{"rpc.retries", "count"},
		metricDef{"rpc.dup_completions", "count"}, metricDef{"rpc.coord_frac", "ratio"},
		metricDef{"privacy.poi_extract_s", "s"}, metricDef{"privacy.mmc_build_s", "s"},
		metricDef{"privacy.link_s", "s"},
		metricDef{"geolife.generate_s", "s"}, metricDef{"geolife.upload_s", "s"},
		metricDef{"synth.fit_s", "s"}, metricDef{"synth.generate_s", "s"},
		metricDef{"runtime.mallocs_per_trace", "count"}, metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"obs.trace_overhead_frac", "ratio"},
	)
	for _, l := range []string{layerRun, layerStage, layerJob, layerPhase, layerAttempt, layerRound, layerExec, layerCall} {
		defs = append(defs, metricDef{"self." + selfName(l), "s"})
	}
	return defs
}

// runFigures derives one run's per-layer figures from its job
// results, stage walls and counters.
func runFigures(r *runRecord, fx *fixture) map[string]float64 {
	st := r.st
	m := map[string]float64{}
	for stage, wall := range st.stageWalls {
		m["gepeto.driver_s"] += (wall - st.jobWalls[stage]).Seconds()
	}
	m["gepeto.kmeans_s"] = st.stageWalls["kmeans"].Seconds()
	m["gepeto.sampling_s"] = st.stageWalls["sampling"].Seconds()
	m["gepeto.djcluster_s"] = st.stageWalls["djcluster"].Seconds()
	m["privacy.poi_extract_s"] = st.stageWalls["poi"].Seconds()
	m["privacy.mmc_build_s"] = st.stageWalls["mmc"].Seconds()
	m["privacy.link_s"] = st.stageWalls["link"].Seconds()

	var mapTasks []float64
	var attempt, phases time.Duration
	var maps, local int64
	var combIn, combOut, spillBytes, spilledShuffle int64
	for _, jr := range st.results {
		m["mapreduce.map_s"] += jr.MapWall.Seconds()
		m["mapreduce.shuffle_s"] += jr.ShuffleWall.Seconds()
		m["mapreduce.reduce_s"] += jr.ReduceWall.Seconds()
		phases += jr.MapWall + jr.ReduceWall
		for _, t := range jr.Tasks {
			if strings.HasPrefix(t.ID, "map-") {
				mapTasks = append(mapTasks, float64(t.Duration)/float64(time.Millisecond))
			}
		}
		for _, a := range jr.Attempts {
			m["mapreduce.task_attempts"]++
			if a.Status == "failed" {
				m["mapreduce.failed_attempts"]++
			}
			attempt += time.Duration(a.EndMs-a.StartMs) * time.Millisecond
		}
		c := jr.Counters
		maps += int64(jr.MapTasks)
		local += c.Value(mapreduce.CounterGroupScheduler, mapreduce.CounterDataLocal)
		m["mapreduce.map_output_records"] += float64(c.Value(mapreduce.CounterGroupTask, mapreduce.CounterMapOutputRecords))
		combIn += c.Value(mapreduce.CounterGroupTask, mapreduce.CounterCombineInput)
		combOut += c.Value(mapreduce.CounterGroupTask, mapreduce.CounterCombineOutput)
		m["mapreduce.spill_files"] += float64(c.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillFiles))
		m["mapreduce.runs_merged"] += float64(c.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleRunsMerged))
		if sb := c.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillBytes); sb > 0 {
			spillBytes += sb
			spilledShuffle += c.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleBytes)
		}
	}
	m["mapreduce.map_task_p50_ms"] = quantile(mapTasks, 0.50)
	m["mapreduce.map_task_p99_ms"] = quantile(mapTasks, 0.99)
	if phases > 0 {
		m["mapreduce.slot_busy_frac"] = attempt.Seconds() / (float64(st.d.slots) * phases.Seconds())
	}
	if maps > 0 {
		m["mapreduce.data_local_frac"] = float64(local) / float64(maps)
	}
	if combIn > 0 {
		m["mapreduce.combine_out_in_ratio"] = float64(combOut) / float64(combIn)
	}
	if spillBytes > 0 {
		m["recordio.spill_raw_to_stored"] = float64(spilledShuffle) / float64(spillBytes)
	}
	m["recordio.input_bytes_per_trace"] = float64(fx.inputBytes) / float64(fx.traces)
	m["dfs.bytes_read"] = float64(r.io.BytesRead)
	m["dfs.bytes_written"] = float64(r.io.BytesWritten)
	m["dfs.chunks_read"] = float64(r.io.ChunksRead)
	m["runtime.mallocs_per_trace"] = float64(r.mallocs) / float64(fx.traces)
	m["runtime.gc_cycles"] = float64(r.gcCycles)
	m["runtime.gc_pause_ms"] = float64(r.gcPause) / float64(time.Millisecond)
	if r.retries >= 0 {
		m["rpc.retries"] = float64(r.retries)
		m["rpc.dup_completions"] = float64(r.dupCompletions)
	}
	return m
}

// perLayer fills the per-layer metrics of a traced invocation: figures
// from job results and counters are medians over its untraced runs,
// span-derived ones medians over its traced runs.
func perLayer(res *result, fx *fixture, plain, traced []*runRecord, setupParts map[string][]float64, tr *tracer, spansOut string) error {
	fromRuns := func(rs []*runRecord) map[string][]float64 {
		out := map[string][]float64{}
		for _, r := range rs {
			for k, v := range runFigures(r, fx) {
				out[k] = append(out[k], v)
			}
		}
		return out
	}
	plainFig := fromRuns(plain)
	tracedFig := map[string][]float64{}
	for _, m := range tr.perRun {
		for k, v := range m {
			tracedFig[k] = append(tracedFig[k], v)
		}
	}
	// The RPC plane's own tallies exist only where it ran traced.
	for k, v := range fromRuns(traced) {
		if strings.HasPrefix(k, "rpc.") {
			tracedFig[k] = v
		}
	}
	for _, d := range perLayerMetrics() {
		var v float64
		switch {
		case len(setupParts[d.name]) > 0:
			v = median(setupParts[d.name])
		case len(tracedFig[d.name]) > 0:
			v = median(tracedFig[d.name])
		case len(plainFig[d.name]) > 0:
			v = median(plainFig[d.name])
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	if len(tracedFig["wall_s"]) > 0 && len(plain) > 0 {
		var walls []float64
		for _, r := range plain {
			walls = append(walls, r.wall.Seconds())
		}
		res.Metrics["obs.trace_overhead_frac"] = metric{median(tracedFig["wall_s"])/median(walls) - 1, "ratio"}
	}
	if err := tr.writeSpans(spansOut); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile by linear interpolation between closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
