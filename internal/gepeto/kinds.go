// Job-kind registrations for out-of-process execution. A worker binary
// that imports this package (as cmd/gepeto does) can materialise these
// jobs from their wire form; see mapreduce.RegisterKind.

package gepeto

import (
	"repro/internal/geo"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
)

// KindKMeansIter names the k-means iteration job family: one MapReduce
// job per Lloyd iteration over the binary points the driver imported,
// centroids in the distributed cache, partial sums as intermediates.
// Every iteration shares this kind — only the per-job data (name,
// cache blob, paths) differs on the wire.
const KindKMeansIter = "gepeto/kmeans-iter"

func init() {
	// The template fixes the job family's functional surface (mapper,
	// reducer, combiner, codecs and the derived key order). Jobs built
	// by KMeansMR carry the same functions, so a worker re-materialising
	// from this registration runs identical task code. The combiner is
	// always registered; whether a given job uses it travels on the wire
	// (JobWire.HasCombiner, driven by KMeansOptions.UseCombiner).
	tj := &kmeansIterJob{
		Mapper: func() mapreduce.TypedMapper[string, geo.Point, int64, recordio.PointSum] {
			return &kmeansMapper{}
		},
		Reducer: func() mapreduce.TypedReducer[int64, recordio.PointSum, int64, recordio.PointSum] {
			return kmeansReducer{}
		},
		Combiner: func() mapreduce.TypedReducer[int64, recordio.PointSum, int64, recordio.PointSum] {
			return kmeansReducer{}
		},
		InputKey:    recordio.RawString{},
		InputValue:  recordio.Point{},
		MapKey:      recordio.Int64{},
		MapValue:    recordio.PointSumCodec{},
		OutputKey:   recordio.Int64{},
		OutputValue: recordio.PointSumCodec{},
	}
	mapreduce.RegisterKind(KindKMeansIter, mapreduce.KindOf(tj.Build()))
}
