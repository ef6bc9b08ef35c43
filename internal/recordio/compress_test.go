package recordio

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// kv is a local pair for test expectations (the package itself deals
// in raw byte streams).
type kv struct{ Key, Value string }

// readAll drains a FileReader, failing the test on any stream error.
func readAll(t *testing.T, data []byte) []kv {
	t.Helper()
	r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
	if err != nil {
		t.Fatal(err)
	}
	var kvs []kv
	for {
		k, v, ok, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", len(kvs), err)
		}
		if !ok {
			return kvs
		}
		kvs = append(kvs, kv{Key: k, Value: v})
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	w := NewCompressedWriter(0)
	want := make([]kv, 500)
	for i := range want {
		want[i] = kv{Key: fmt.Sprintf("key-%04d", i), Value: strings.Repeat("v", i%37)}
		w.Add(want[i].Key, want[i].Value)
	}
	data := w.Bytes()
	if !IsCompressedRecordData(data) {
		t.Fatal("compressed file not recognised by its header")
	}
	got := readAll(t, data)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCompressedBlockBoundaries pins the block framing edges: a record
// exactly filling a block, records landing just before and after the
// flush point, and a record far larger than the block size (which must
// get a block of its own rather than straddle).
func TestCompressedBlockBoundaries(t *testing.T) {
	const block = 64
	w := NewCompressedWriter(block)
	var want []kv
	add := func(k, v string) {
		want = append(want, kv{Key: k, Value: v})
		w.Add(k, v)
	}
	// Frame overhead is 2 uvarint bytes for these sizes: 2+1+61 = 64
	// lands the flush exactly at the block size.
	add("k", strings.Repeat("a", 61))
	add("edge", "just-after-a-flush")
	add("big", strings.Repeat("B", 10*block)) // record ≫ block size
	add("tail", "after-the-giant")
	got := readAll(t, w.Bytes())
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: key %q (%d value bytes), want key %q (%d value bytes)",
				i, got[i].Key, len(got[i].Value), want[i].Key, len(want[i].Value))
		}
	}
}

func TestCompressedEmptyFileIsCleanEOF(t *testing.T) {
	if got := readAll(t, NewCompressedWriter(0).Bytes()); len(got) != 0 {
		t.Fatalf("empty file yielded %d records", len(got))
	}
}

// TestFileReaderPlainAcrossFetchWindows streams a v1 file bigger than
// one fetch window, so records and sync markers straddle window
// boundaries inside ensure().
func TestFileReaderPlainAcrossFetchWindows(t *testing.T) {
	w := NewWriter()
	val := strings.Repeat("x", 1000)
	n := (fetchWindow/1000 + 50) * 2 // ~2.1 windows of data
	for i := 0; i < n; i++ {
		w.Add(fmt.Sprintf("key-%06d", i), val)
	}
	data := w.Bytes()
	if len(data) <= fetchWindow {
		t.Fatalf("fixture too small: %d bytes", len(data))
	}
	got := readAll(t, data)
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i, kv := range got {
		if kv.Key != fmt.Sprintf("key-%06d", i) || kv.Value != val {
			t.Fatalf("record %d mangled: key %q, %d value bytes", i, kv.Key, len(kv.Value))
		}
	}
}

// TestFileReaderTruncationIsError chops bytes off the tail of both
// formats: the stream must end in an explicit error, never a clean EOF
// that silently drops records.
func TestFileReaderTruncationIsError(t *testing.T) {
	files := map[string][]byte{}
	{
		w := NewWriter()
		for i := 0; i < 200; i++ {
			w.Add(fmt.Sprintf("key-%04d", i), strings.Repeat("v", 40))
		}
		files["v1"] = w.Bytes()
	}
	{
		w := NewCompressedWriter(256)
		for i := 0; i < 200; i++ {
			w.Add(fmt.Sprintf("key-%04d", i), strings.Repeat("v", 40))
		}
		files["v2"] = w.Bytes()
	}
	for name, full := range files {
		for _, cut := range []int{1, 7, 33} {
			data := full[:len(full)-cut]
			r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
			if err != nil {
				t.Fatalf("%s cut %d: open: %v", name, cut, err)
			}
			var streamErr error
			reads := 0
			for {
				_, _, ok, err := r.Next()
				if err != nil {
					streamErr = err
					break
				}
				if !ok {
					break
				}
				reads++
			}
			if streamErr == nil {
				t.Fatalf("%s cut %d: truncated file read %d records to a clean EOF", name, cut, reads)
			}
		}
	}
}

func TestFileReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewFileReader(3, BytesFetcher([]byte("RC"))); err == nil {
		t.Fatal("short file accepted")
	}
	if _, err := NewFileReader(10, BytesFetcher([]byte("GARBAGE###"))); err == nil {
		t.Fatal("unknown header accepted")
	}
	if _, err := NewFileReader(5, BytesFetcher([]byte{'R', 'C', 'I', 'O', 9})); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestFileReaderMatchesSliceReader cross-checks the streaming reader
// against the established in-memory v1 reader on the same bytes.
func TestFileReaderMatchesSliceReader(t *testing.T) {
	w := NewWriter()
	for i := 0; i < 1000; i++ {
		w.Add(fmt.Sprintf("k%05d", i), fmt.Sprintf("value-%d", i*i))
	}
	data := w.Bytes()
	var want []kv
	if err := ScanAll(data, func(k, v string) error {
		want = append(want, kv{Key: k, Value: v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, data)
	if len(got) != len(want) {
		t.Fatalf("streaming read %d records, slice read %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: streaming %v, slice %v", i, got[i], want[i])
		}
	}
}

// referenceCompressed encodes recs as a version-2 file with a fresh
// BestSpeed compressor per block: the encoder the pooled writer must
// match byte for byte, so spill sizes and counters cannot move.
func referenceCompressed(blockSize int, recs []kv) []byte {
	out := append([]byte(nil), compressedHeader[:]...)
	var block []byte
	flush := func() {
		if len(block) == 0 {
			return
		}
		// NewWriter fails only on a bad level, and writes into a
		// bytes.Buffer cannot fail, so the errors are dropped.
		var comp bytes.Buffer
		zw, _ := flate.NewWriter(&comp, flate.BestSpeed)
		_, _ = zw.Write(block)
		_ = zw.Close()
		out = appendUvarint(out, uint64(len(block)))
		out = appendUvarint(out, uint64(comp.Len()))
		out = append(out, comp.Bytes()...)
		block = block[:0]
	}
	for _, r := range recs {
		block = appendUvarint(block, uint64(len(r.Key)))
		block = appendUvarint(block, uint64(len(r.Value)))
		block = append(block, r.Key...)
		block = append(block, r.Value...)
		if len(block) >= blockSize {
			flush()
		}
	}
	flush()
	return out
}

// testRecords returns n deterministic records whose contents depend on
// seed; every few records a long, repetitive value stresses matching.
func testRecords(seed, n int) []kv {
	recs := make([]kv, n)
	for i := range recs {
		v := fmt.Sprintf("%d:%d:%x", seed, i, i*i*(seed+1))
		if i%17 == 0 {
			v += strings.Repeat(fmt.Sprint(seed), 200+i%50)
		}
		recs[i] = kv{Key: fmt.Sprintf("user-%03d|%06d", (i*7+seed)%100, i), Value: v}
	}
	return recs
}

func writeCompressed(blockSize int, recs []kv) []byte {
	w := NewCompressedWriter(blockSize)
	for _, r := range recs {
		w.Add(r.Key, r.Value)
	}
	return w.Bytes()
}

// TestCompressedBytesMatchFreshEncoder runs many writers in sequence,
// each producing multi-block files, so pooled compressors are reused
// across blocks and across writers.
func TestCompressedBytesMatchFreshEncoder(t *testing.T) {
	for seed := 0; seed < 12; seed++ {
		blockSize := []int{0, 300, 2000, 8192}[seed%4]
		recs := testRecords(seed, 200+seed*30)
		got := writeCompressed(blockSize, recs)
		ref := blockSize
		if ref <= 0 {
			ref = DefaultCompressBlock
		}
		if want := referenceCompressed(ref, recs); !bytes.Equal(got, want) {
			t.Fatalf("seed %d block %d: pooled writer wrote %d bytes, fresh-encoder reference %d (contents differ)",
				seed, blockSize, len(got), len(want))
		}
	}
	// A file bigger than the default block, so the default path spans
	// several blocks too.
	recs := testRecords(99, 6000)
	if got, want := writeCompressed(0, recs), referenceCompressed(DefaultCompressBlock, recs); !bytes.Equal(got, want) {
		t.Fatalf("multi-block default file: pooled %d bytes, reference %d", len(got), len(want))
	}
}

// TestFileReaderStringsSurviveBlockReuse keeps every returned key and
// value until the file is drained: later blocks decompress into the
// same buffer, which must not show through the earlier strings.
func TestFileReaderStringsSurviveBlockReuse(t *testing.T) {
	// The first block is the largest, so every later block fits in its
	// buffer and reuses it.
	want := []kv{{Key: "giant", Value: strings.Repeat("G", 4000)}}
	for i := 0; i < 400; i++ {
		want = append(want, kv{Key: fmt.Sprintf("k%04d", i), Value: strings.Repeat(string(rune('a'+i%26)), 20+i%13)})
	}
	got := readAll(t, writeCompressed(256, want))
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d changed after later blocks were read: key %q, value %.20q…", i, got[i].Key, got[i].Value)
		}
	}
}

// TestCompressedOverlongBlockIsError hand-builds a block whose DEFLATE
// stream holds one record plus 16 trailing bytes while its header
// declares only the record: the reader must refuse it rather than drop
// the extra bytes.
func TestCompressedOverlongBlockIsError(t *testing.T) {
	var rec []byte
	rec = appendUvarint(rec, 3)
	rec = appendUvarint(rec, 5)
	rec = append(rec, "keyvalue"...)
	payload := append(append([]byte(nil), rec...), bytes.Repeat([]byte{0xEE}, 16)...)
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), compressedHeader[:]...)
	data = appendUvarint(data, uint64(len(rec)))
	data = appendUvarint(data, uint64(comp.Len()))
	data = append(data, comp.Bytes()...)

	r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
	if err != nil {
		t.Fatal(err)
	}
	k, v, ok, err := r.Next()
	if !errors.Is(err, errOverlongBlock) {
		t.Fatalf("Next = (%q, %q, %v, %v), want the over-long block error", k, v, ok, err)
	}
	if !strings.Contains(err.Error(), "corrupt compressed block") {
		t.Fatalf("error %q does not name the corrupt block", err)
	}
}

// TestCompressedPoolsConcurrent writes and reads through the shared
// compressor and decompressor pools from several goroutines at once.
// Run under -race.
func TestCompressedPoolsConcurrent(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				seed := g*10 + round
				recs := testRecords(seed, 400)
				data := writeCompressed(1024, recs)
				if want := referenceCompressed(1024, recs); !bytes.Equal(data, want) {
					t.Errorf("goroutine %d round %d: bytes differ from the fresh-encoder reference", g, round)
					return
				}
				r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; ; i++ {
					k, v, ok, err := r.Next()
					if err != nil {
						t.Errorf("goroutine %d round %d record %d: %v", g, round, i, err)
						return
					}
					if !ok {
						if i != len(recs) {
							t.Errorf("goroutine %d round %d: read %d records, want %d", g, round, i, len(recs))
						}
						break
					}
					if i >= len(recs) || (kv{Key: k, Value: v}) != recs[i] {
						t.Errorf("goroutine %d round %d: record %d mismatch", g, round, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
