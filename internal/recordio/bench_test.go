package recordio

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/trace"
)

// The codec benchmarks quantify the tentpole's claim: binary records
// beat the Sprintf/ParseFloat text path on both time and allocations.
// Run with -benchmem (CI runs them at -benchtime=1x as a smoke test).

func BenchmarkCodecTraceEncodeBinary(b *testing.B) {
	tr := someBenchTrace()
	c := TraceValue{}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.Append(buf[:0], tr)
	}
	_ = buf
}

func BenchmarkCodecTraceEncodeText(b *testing.B) {
	tr := someBenchTrace()
	b.ReportAllocs()
	var s string
	for i := 0; i < b.N; i++ {
		s = tr.Record()
	}
	_ = s
}

func BenchmarkCodecTraceDecodeBinary(b *testing.B) {
	tr := someBenchTrace()
	enc := string(TraceValue{}.Append(nil, tr))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTraceValue(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecTraceDecodeText(b *testing.B) {
	rec := someBenchTrace().Record()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTraceValue(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecInt64Key(b *testing.B) {
	c := Int64{}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.Append(buf[:0], int64(i))
		if _, err := c.Decode(string(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecInt64KeyText(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := strconv.Itoa(i)
		if _, err := strconv.Atoi(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecPointSum(b *testing.B) {
	c := PointSumCodec{}
	v := PointSum{LatSum: 39.984702 * 1000, LonSum: 116.318417 * 1000, N: 1000}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.Append(buf[:0], v)
		if _, err := c.Decode(string(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecPointSumText(b *testing.B) {
	v := PointSum{LatSum: 39.984702 * 1000, LonSum: 116.318417 * 1000, N: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := fmt.Sprintf("%f,%f,%d", v.LatSum, v.LonSum, v.N)
		var lat, lon float64
		var n int64
		if _, err := fmt.Sscanf(s, "%f,%f,%d", &lat, &lon, &n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileWriteScan(b *testing.B) {
	tr := someBenchTrace()
	val := string(TraceValue{}.Append(nil, tr))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter()
		for j := 0; j < 1000; j++ {
			w.Add(tr.User, val)
		}
		n := 0
		if err := ScanAll(w.Bytes(), func(k, v string) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 1000 {
			b.Fatal("lost records")
		}
	}
	b.ReportMetric(1000, "records/op")
}

// BenchmarkCodecCompressedSpill writes a multi-block compressed spill
// run and scans it back, the per-run work of a CompressSpill shuffle.
// Its allocs/op show whether DEFLATE state and block buffers are
// recycled rather than rebuilt per block.
func BenchmarkCodecCompressedSpill(b *testing.B) {
	tr := someBenchTrace()
	val := string(TraceValue{}.Append(nil, tr))
	const records = 20000 // ≈ 12 default-size blocks
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewCompressedWriter(0)
		for j := 0; j < records; j++ {
			w.Add(tr.User, val)
		}
		data := w.Bytes()
		r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, _, ok, err := r.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != records {
			b.Fatalf("scanned %d records, want %d", n, records)
		}
	}
	b.ReportMetric(records, "records/op")
}

func someBenchTrace() trace.Trace {
	tr, err := trace.ParseRecord("user-042\t39.984702,116.318417,492,1224730100")
	if err != nil {
		panic(err)
	}
	return tr
}
