package recordio

import (
	"fmt"
	"math/rand"
	"testing"
)

func buildFile(t *testing.T, kvs [][2]string) []byte {
	t.Helper()
	w := NewWriter()
	for _, kv := range kvs {
		w.Add(kv[0], kv[1])
	}
	return w.Bytes()
}

func randKVs(rng *rand.Rand, n int) [][2]string {
	kvs := make([][2]string, n)
	for i := range kvs {
		key := fmt.Sprintf("key-%06d", rng.Intn(n*2+1))
		val := make([]byte, rng.Intn(120))
		rng.Read(val)
		kvs[i] = [2]string{key, string(val)}
	}
	return kvs
}

func TestWriterScanAllRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kvs := randKVs(rng, 500)
	data := buildFile(t, kvs)
	if !IsRecordData(data) {
		t.Fatal("written file does not sniff as record data")
	}
	var got [][2]string
	if err := ScanAll(data, func(k, v string) error {
		got = append(got, [2]string{k, v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(kvs) {
		t.Fatalf("scanned %d records, wrote %d", len(got), len(kvs))
	}
	for i := range kvs {
		if got[i] != kvs[i] {
			t.Fatalf("record %d: %q, want %q", i, got[i], kvs[i])
		}
	}
}

func TestIsRecordDataNegative(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("RCI"), []byte("user\t1,2,3,4\n"), []byte("RCIO\x02rest")} {
		if IsRecordData(b) {
			t.Fatalf("%q sniffed as record data", b)
		}
	}
}

// TestScanSplitExactness is the split-semantics property: for random
// files and random split boundaries, scanning every split of a
// partition of the file yields each record exactly once, in file
// order — records are neither lost nor duplicated at sync-block
// boundaries, mirroring the text reader's line-ownership rule.
func TestScanSplitExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		kvs := randKVs(rng, 1+rng.Intn(800))
		data := buildFile(t, kvs)
		// Random split boundaries, including tiny and huge splits.
		var cuts []int64
		pos := int64(0)
		for pos < int64(len(data)) {
			cuts = append(cuts, pos)
			pos += int64(1 + rng.Intn(len(data)/2+1))
		}
		cuts = append(cuts, int64(len(data)))
		var got [][2]string
		for i := 0; i+1 < len(cuts); i++ {
			start, end := cuts[i], cuts[i+1]
			err := ScanSplit(data, 0, start, end, false, func(k, v string) error {
				got = append(got, [2]string{k, v})
				return nil
			})
			if err != nil {
				t.Fatalf("trial %d split [%d,%d): %v", trial, start, end, err)
			}
		}
		if len(got) != len(kvs) {
			t.Fatalf("trial %d: %d records over all splits, want %d", trial, len(got), len(kvs))
		}
		for i := range kvs {
			if got[i] != kvs[i] {
				t.Fatalf("trial %d record %d: %q, want %q", trial, i, got[i], kvs[i])
			}
		}
	}
}

// TestScanSplitPartialBuffer drives ScanSplit the way the engine's
// reader does: each split only sees the file from its own offset, not
// from byte 0.
func TestScanSplitPartialBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kvs := randKVs(rng, 600)
	data := buildFile(t, kvs)
	const splitLen = 1000
	var got [][2]string
	for start := int64(0); start < int64(len(data)); start += splitLen {
		end := start + splitLen
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		buf := data[start:]
		err := ScanSplit(buf, start, start, end, false, func(k, v string) error {
			got = append(got, [2]string{k, v})
			return nil
		})
		if err != nil {
			t.Fatalf("split [%d,%d): %v", start, end, err)
		}
	}
	if len(got) != len(kvs) {
		t.Fatalf("%d records over all splits, want %d", len(got), len(kvs))
	}
	for i := range kvs {
		if got[i] != kvs[i] {
			t.Fatalf("record %d: %q, want %q", i, got[i], kvs[i])
		}
	}
}

func TestScanSplitRangeLimitedMidRecord(t *testing.T) {
	w := NewWriter()
	w.Add("key", "0123456789")
	data := w.Bytes()
	// Cut the buffer mid-record and claim it was range-limited: the
	// scan must report the budget error rather than silently stop.
	cut := data[:len(data)-4]
	err := ScanSplit(cut, 0, 0, int64(len(data)), true, func(k, v string) error { return nil })
	if err == nil {
		t.Fatal("want overrun error for range-limited mid-record buffer")
	}
	// The same cut without rangeLimited is a truncated (corrupt) file.
	err = ScanSplit(cut, 0, 0, int64(len(data)), false, func(k, v string) error { return nil })
	if err == nil {
		t.Fatal("want corruption error for truncated file")
	}
}

func TestScanAllRejectsMissingHeader(t *testing.T) {
	if err := ScanAll([]byte("plain text\n"), func(k, v string) error { return nil }); err == nil {
		t.Fatal("want error for missing header")
	}
}

func TestScanAllCorruptFrame(t *testing.T) {
	w := NewWriter()
	w.Add("k", "v")
	data := w.Bytes()
	// Blow up the key length varint to an absurd value.
	data[HeaderLen] = 0xFF
	data = append(data[:HeaderLen+1], append([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, data[HeaderLen+1:]...)...)
	if err := ScanAll(data, func(k, v string) error { return nil }); err == nil {
		t.Fatal("want error for corrupt frame")
	}
}

func TestWriterEmitsSyncMarkers(t *testing.T) {
	w := NewWriter()
	val := string(make([]byte, 100))
	for i := 0; i < 500; i++ {
		w.Add(fmt.Sprintf("k%04d", i), val)
	}
	data := w.Bytes()
	// ~500 * ~110 bytes with a marker every ≥4096: expect at least 10.
	count := 0
	for i := 0; i+syncLen <= len(data); i++ {
		match := true
		for j := 0; j < syncLen; j++ {
			if data[i+j] != syncMarker[j] {
				match = false
				break
			}
		}
		if match {
			count++
		}
	}
	if count < 10 {
		t.Fatalf("found %d sync markers, want at least 10", count)
	}
}

// TestWriterResetReuse encodes several files through one reset writer;
// each must equal the file a fresh writer produces.
func TestWriterResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWriter()
	for i, n := range []int{300, 0, 40, 700} {
		kvs := randKVs(rng, n)
		w.Reset(i * 1000)
		for _, kv := range kvs {
			w.Add(kv[0], kv[1])
		}
		if want := buildFile(t, kvs); string(w.Bytes()) != string(want) {
			t.Fatalf("file %d: reset writer wrote %d bytes, fresh writer %d, contents differ", i, w.Len(), len(want))
		}
	}
}
