// Package keyorder exercises the rawkeyorder analyzer: typed jobs
// with reducers must pair the raw-byte shuffle sort with an
// order-preserving MapKey codec.
package keyorder

import (
	"strconv"

	"repro/internal/mapreduce"
	"repro/internal/recordio"
)

// DecimalInt encodes int64 keys as decimal text: "10" sorts before
// "9", so raw-byte order does not follow int64 order and there is no
// RawCompare.
type DecimalInt struct{}

// Append implements Codec.
func (DecimalInt) Append(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// Decode implements Codec.
func (DecimalInt) Decode(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

func idMapper() mapreduce.TypedMapper[string, string, int64, string] {
	return mapreduce.TypedMapFunc[string, string, int64, string](
		func(ctx *mapreduce.TaskContext, k, v string, emit mapreduce.TypedEmit[int64, string]) error {
			return nil
		})
}

func sumReducer() mapreduce.TypedReducer[int64, string, int64, string] {
	return mapreduce.TypedReduceFunc[int64, string, int64, string](
		func(ctx *mapreduce.TaskContext, k int64, vs []string, emit mapreduce.TypedEmit[int64, string]) error {
			return nil
		})
}

// badJob sorts decimal-encoded int64 keys: flagged at MapKey.
var badJob = mapreduce.TypedJob[string, string, int64, string, int64, string]{
	Name:     "bad",
	Mapper:   idMapper,
	Reducer:  sumReducer,
	MapKey:   DecimalInt{}, // want `MapKey codec .*DecimalInt does not implement mapreduce\.RawComparer`
	MapValue: recordio.RawString{},
}

// goodJob uses the order-preserving big-endian codec: accepted.
var goodJob = mapreduce.TypedJob[string, string, int64, string, int64, string]{
	Name:     "good",
	Mapper:   idMapper,
	Reducer:  sumReducer,
	MapKey:   recordio.Int64{},
	MapValue: recordio.RawString{},
}

// DescInt64 orders big-endian int64 keys descending: a RawComparer
// with its own order.
type DescInt64 struct{ recordio.Int64 }

// RawCompare implements RawComparer, reversing byte order.
func (DescInt64) RawCompare(a, b string) int { return recordio.Int64{}.RawCompare(b, a) }

// descJob sorts by a codec that declares its own order: accepted.
var descJob = mapreduce.TypedJob[string, string, int64, string, int64, string]{
	Name:     "desc",
	Mapper:   idMapper,
	Reducer:  sumReducer,
	MapKey:   DescInt64{},
	MapValue: recordio.RawString{},
}

// mapOnlyJob never sorts, any codec goes: accepted.
var mapOnlyJob = mapreduce.TypedJob[string, string, int64, string, int64, string]{
	Name:     "maponly",
	Mapper:   idMapper,
	MapKey:   DecimalInt{},
	MapValue: recordio.RawString{},
}

// combinerJob sorts for the combiner even though Reducer is nil in the
// literal: flagged at MapKey.
var combinerJob = mapreduce.TypedJob[string, string, int64, string, int64, string]{
	Name:     "combine",
	Mapper:   idMapper,
	Reducer:  nil,
	Combiner: sumReducer,
	MapKey:   DecimalInt{}, // want `MapKey codec .*DecimalInt does not implement mapreduce\.RawComparer`
	MapValue: recordio.RawString{},
}

// noKeyJob has a reducer but no MapKey at all: flagged at the literal.
var noKeyJob = mapreduce.TypedJob[string, string, int64, string, int64, string]{ // want `no MapKey codec`
	Name:     "nokey",
	Mapper:   idMapper,
	Reducer:  sumReducer,
	MapValue: recordio.RawString{},
}
