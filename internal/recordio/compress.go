// Compressed record files (format version 2) and a streaming reader
// over both record-file formats. Version 2 drops the sync markers of
// the splittable v1 format and instead frames records into
// independently DEFLATE-compressed blocks:
//
//	RCIO\x02 | block... 	block = uvarint rawLen | uvarint compLen | compLen bytes
//
// Records inside a block's decompressed payload use the same uvarint
// key/value framing as v1, and a record never straddles a block
// boundary (a record larger than the block size gets a block of its
// own). The format is for sequentially-read intermediate files — map
// spill runs — which are merged record-at-a-time, never split, so
// resynchronisation markers would be dead weight next to the
// compression win.
//
// FileReader streams either format through a caller-supplied ranged
// fetch (a dfs.ReadRange closure in the engine) so a reduce-side merge
// holds one fetch window per run instead of whole run files.
//
// Like Hadoop's CodecPool, the v2 codec recycles its DEFLATE state:
// compressors and decompressors come from package-level pools and are
// re-armed with Reset, and each writer and reader reuses its block
// buffers, so encoding or decoding a block allocates nothing.

package recordio

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

const (
	// DefaultCompressBlock is the raw payload size a CompressedWriter
	// accumulates before compressing and emitting a block.
	DefaultCompressBlock = 64 << 10
	// fetchWindow is the FileReader's ranged-read granularity.
	fetchWindow = 256 << 10
)

var compressedHeader = [HeaderLen]byte{'R', 'C', 'I', 'O', 2}

// IsCompressedRecordData reports whether b starts with the compressed
// (version 2) record-file header.
func IsCompressedRecordData(b []byte) bool {
	return len(b) >= HeaderLen && bytes.Equal(b[:HeaderLen], compressedHeader[:])
}

// CompressedWriter accumulates an in-memory version-2 record file,
// compressing each block with DEFLATE as it fills.
type CompressedWriter struct {
	buf       []byte // encoded file
	block     []byte // pending raw payload
	comp      []byte // scratch for the block being compressed
	blockSize int
}

// deflater is a pooled BestSpeed compressor together with its sink:
// the compressor writes into out, which flushBlock points at the
// calling writer's scratch slice for the duration of one block.
type deflater struct {
	zw  *flate.Writer
	out []byte
}

func (d *deflater) Write(p []byte) (int, error) {
	d.out = append(d.out, p...)
	return len(p), nil
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	zw, err := flate.NewWriter(d, flate.BestSpeed)
	if err != nil {
		// flate.NewWriter only fails on an invalid level constant.
		panic(err)
	}
	d.zw = zw
	return d
}}

// NewCompressedWriter returns a writer with the header already
// emitted. blockSize ≤ 0 selects DefaultCompressBlock.
func NewCompressedWriter(blockSize int) *CompressedWriter {
	if blockSize <= 0 {
		blockSize = DefaultCompressBlock
	}
	w := &CompressedWriter{blockSize: blockSize}
	w.buf = append(w.buf, compressedHeader[:]...)
	return w
}

// Add appends one key/value record. The record lands wholly inside the
// current block; the block is flushed once it reaches the block size.
func (w *CompressedWriter) Add(key, value string) {
	w.block = appendUvarint(w.block, uint64(len(key)))
	w.block = appendUvarint(w.block, uint64(len(value)))
	w.block = append(w.block, key...)
	w.block = append(w.block, value...)
	if len(w.block) >= w.blockSize {
		w.flushBlock()
	}
}

// flushBlock compresses and emits the pending payload as one block.
// Reset leaves a pooled compressor in the state NewWriter would, so
// the bytes match a fresh compressor per block.
func (w *CompressedWriter) flushBlock() {
	if len(w.block) == 0 {
		return
	}
	d := deflaters.Get().(*deflater)
	d.zw.Reset(d)
	d.out = w.comp[:0]
	// The sink cannot fail, so neither can Write or Close.
	if _, err := d.zw.Write(w.block); err != nil {
		panic(err)
	}
	if err := d.zw.Close(); err != nil {
		panic(err)
	}
	w.comp, d.out = d.out, nil
	deflaters.Put(d)
	w.buf = appendUvarint(w.buf, uint64(len(w.block)))
	w.buf = appendUvarint(w.buf, uint64(len(w.comp)))
	w.buf = append(w.buf, w.comp...)
	w.block = w.block[:0]
}

// Len returns the encoded size so far, excluding the pending block.
func (w *CompressedWriter) Len() int { return len(w.buf) }

// Bytes flushes the pending block and returns the encoded file. The
// writer must not be reused after.
func (w *CompressedWriter) Bytes() []byte {
	w.flushBlock()
	return w.buf
}

// FetchFunc reads n bytes of a file starting at off. A fetch may
// return fewer bytes only because the file ends (dfs.ReadRange
// semantics); any other shortfall must surface as an error.
type FetchFunc func(off, n int64) ([]byte, error)

// FileReader streams the records of a version-1 or version-2 record
// file through a ranged fetch, holding at most one fetch window (plus
// one decompressed block for v2) in memory.
type FileReader struct {
	fetch   FetchFunc
	size    int64
	version byte

	off int64  // file offset of buf[0]
	buf []byte // fetched raw window, consumed from pos
	pos int

	block    []byte // v2: current decompressed payload, reused across blocks
	blockPos int
}

// NewFileReader opens a record file of the given total size, sniffing
// the format version from the header.
func NewFileReader(size int64, fetch FetchFunc) (*FileReader, error) {
	r := &FileReader{fetch: fetch, size: size}
	if size < HeaderLen {
		return nil, fmt.Errorf("recordio: file of %d bytes is shorter than a record-file header", size)
	}
	hdr, err := r.ensure(HeaderLen)
	if err != nil {
		return nil, err
	}
	switch {
	case bytes.Equal(hdr[:HeaderLen], fileHeader[:]):
		r.version = 1
	case bytes.Equal(hdr[:HeaderLen], compressedHeader[:]):
		r.version = 2
	default:
		return nil, fmt.Errorf("recordio: unrecognised record-file header")
	}
	r.pos += HeaderLen
	return r, nil
}

// ensure returns at least n unconsumed bytes starting at the cursor,
// fetching more of the file as needed. It returns fewer than n bytes
// without error only at end of file.
func (r *FileReader) ensure(n int) ([]byte, error) {
	for len(r.buf)-r.pos < n {
		fetchAt := r.off + int64(len(r.buf))
		if fetchAt >= r.size {
			break // end of file
		}
		want := int64(fetchWindow)
		if n > fetchWindow {
			want = int64(n)
		}
		if fetchAt+want > r.size {
			want = r.size - fetchAt
		}
		chunk, err := r.fetch(fetchAt, want)
		if err != nil {
			return nil, err
		}
		if int64(len(chunk)) < want {
			return nil, fmt.Errorf("recordio: short fetch at offset %d: got %d of %d bytes", fetchAt, len(chunk), want)
		}
		// Drop the consumed prefix before growing the window.
		if r.pos > 0 {
			r.buf = append(r.buf[:0], r.buf[r.pos:]...)
			r.off += int64(r.pos)
			r.pos = 0
		}
		r.buf = append(r.buf, chunk...)
	}
	return r.buf[r.pos:], nil
}

// Next returns the next record. ok is false at a clean end of file;
// a truncated or corrupt file returns an error, never a silent stop.
func (r *FileReader) Next() (key, value string, ok bool, err error) {
	if r.version == 2 {
		return r.nextCompressed()
	}
	return r.nextPlain()
}

// nextPlain advances through a v1 file, skipping sync markers.
func (r *FileReader) nextPlain() (string, string, bool, error) {
	for {
		rest, err := r.ensure(syncLen + 2*maxUvarintLen)
		if err != nil {
			return "", "", false, err
		}
		if len(rest) == 0 {
			return "", "", false, nil // clean end of file
		}
		if len(rest) >= syncLen && bytes.Equal(rest[:syncLen], syncMarker[:]) {
			r.pos += syncLen
			continue
		}
		klen, kn := buvarint(rest)
		vlen, vn := buvarint(rest[kn:])
		if kn == 0 || vn == 0 || klen > maxFrameLen || vlen > maxFrameLen {
			return "", "", false, fmt.Errorf("recordio: corrupt record frame at offset %d", r.off+int64(r.pos))
		}
		frame := kn + vn + int(klen) + int(vlen)
		if rest, err = r.ensure(frame); err != nil {
			return "", "", false, err
		}
		if len(rest) < frame {
			return "", "", false, fmt.Errorf("recordio: truncated record at offset %d", r.off+int64(r.pos))
		}
		body := rest[kn+vn : frame]
		r.pos += frame
		return string(body[:klen]), string(body[klen:]), true, nil
	}
}

// nextCompressed advances through a v2 file, decompressing a block at
// a time.
func (r *FileReader) nextCompressed() (string, string, bool, error) {
	if r.blockPos >= len(r.block) {
		ok, err := r.loadBlock()
		if err != nil || !ok {
			return "", "", false, err
		}
	}
	rest := r.block[r.blockPos:]
	klen, kn := buvarint(rest)
	vlen, vn := buvarint(rest[kn:])
	if kn == 0 || vn == 0 || klen > maxFrameLen || vlen > maxFrameLen {
		return "", "", false, fmt.Errorf("recordio: corrupt record frame in block at offset %d", r.off+int64(r.pos))
	}
	frame := kn + vn + int(klen) + int(vlen)
	if frame > len(rest) {
		return "", "", false, fmt.Errorf("recordio: record extends past its compressed block at offset %d", r.off+int64(r.pos))
	}
	body := rest[kn+vn : frame]
	r.blockPos += frame
	return string(body[:klen]), string(body[klen:]), true, nil
}

// loadBlock fetches and decompresses the next block. ok is false at a
// clean end of file.
func (r *FileReader) loadBlock() (bool, error) {
	hdr, err := r.ensure(2 * maxUvarintLen)
	if err != nil {
		return false, err
	}
	if len(hdr) == 0 {
		return false, nil // clean end of file
	}
	rawLen, rn := buvarint(hdr)
	compLen, cn := buvarint(hdr[rn:])
	if rn == 0 || cn == 0 || rawLen == 0 || rawLen > maxFrameLen || compLen > maxFrameLen {
		return false, fmt.Errorf("recordio: corrupt block header at offset %d", r.off+int64(r.pos))
	}
	need := rn + cn + int(compLen)
	if hdr, err = r.ensure(need); err != nil {
		return false, err
	}
	if len(hdr) < need {
		return false, fmt.Errorf("recordio: truncated block at offset %d", r.off+int64(r.pos))
	}
	// The previous block is fully consumed, so its buffer can take the
	// next one: Next copies every key and value out.
	raw := slices.Grow(r.block[:0], int(rawLen))[:rawLen]
	if err := inflate(raw, hdr[rn+cn:need]); err != nil {
		return false, fmt.Errorf("recordio: block at offset %d: %w", r.off+int64(r.pos), err)
	}
	r.pos += need
	r.block, r.blockPos = raw, 0
	return true, nil
}

// inflater is a pooled DEFLATE decompressor together with the reader
// it decodes from.
type inflater struct {
	src   bytes.Reader
	zr    io.Reader // flate decompressor over src; a flate.Resetter
	probe [1]byte   // reads past the declared length, expecting EOF
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.zr = flate.NewReader(&f.src)
	return f
}}

// errOverlongBlock reports a block whose DEFLATE stream carries more
// bytes than its header declares.
var errOverlongBlock = errors.New("corrupt compressed block: stream decompresses past its declared length")

// inflate decompresses one block's DEFLATE stream into dst, which is
// exactly the declared raw length. A stream that ends short of dst or
// runs past it is an error. Reset re-arms the pooled decompressor
// completely, so a failed stream cannot affect the next block.
func inflate(dst, comp []byte) error {
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	f.src.Reset(comp)
	defer f.src.Reset(nil) // do not pin the caller's window while pooled
	if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(f.zr, dst); err != nil {
		return fmt.Errorf("does not decompress to %d bytes: %v", len(dst), err)
	}
	switch n, err := f.zr.Read(f.probe[:]); {
	case n > 0:
		return errOverlongBlock
	case err != io.EOF:
		return fmt.Errorf("corrupt compressed block: %v", err)
	}
	return nil
}

// BytesFetcher adapts an in-memory file to a FetchFunc, truncating at
// end of data like dfs.ReadRange.
func BytesFetcher(data []byte) FetchFunc {
	return func(off, n int64) ([]byte, error) {
		if off >= int64(len(data)) {
			return nil, nil
		}
		end := off + n
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		return data[off:end], nil
	}
}
