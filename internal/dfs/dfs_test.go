package dfs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func newFS(t *testing.T, nodes, racks int, chunkSize int64) (*FileSystem, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.NewUniform(nodes, racks, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(c, Config{ChunkSize: chunkSize, Replication: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fs, c
}

func randBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return b
}

func TestCreateReadRoundTrip(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 100)
	data := randBytes(1234, 1)
	if err := fs.Create("data/file1", data, ""); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("data/file1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ReadAll mismatch")
	}
	size, err := fs.Size("data/file1")
	if err != nil || size != 1234 {
		t.Fatalf("Size = %d, %v", size, err)
	}
}

func TestChunkingExact(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 100)
	// 250 bytes with 100-byte chunks -> 3 chunks of 100,100,50.
	if err := fs.Create("f", randBytes(250, 2), ""); err != nil {
		t.Fatal(err)
	}
	chunks, err := fs.Chunks("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	wantLens := []int64{100, 100, 50}
	for i, ci := range chunks {
		if ci.Index != i || ci.Offset != int64(i)*100 || ci.Length != wantLens[i] {
			t.Fatalf("chunk %d = %+v", i, ci)
		}
		if len(ci.Hosts) != 3 {
			t.Fatalf("chunk %d has %d hosts, want 3", i, len(ci.Hosts))
		}
	}
}

func TestChunkBoundaryMultiple(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 100)
	// Exactly 200 bytes -> 2 chunks, not 3.
	if err := fs.Create("f", randBytes(200, 3), ""); err != nil {
		t.Fatal(err)
	}
	chunks, _ := fs.Chunks("f")
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(chunks))
	}
}

func TestEmptyFile(t *testing.T) {
	fs, _ := newFS(t, 3, 1, 100)
	if err := fs.Create("empty", nil, ""); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadAll(empty) = %v, %v", got, err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs, _ := newFS(t, 3, 1, 100)
	if err := fs.Create("f", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("f", []byte("y"), ""); err == nil {
		t.Fatal("duplicate create should fail")
	}
}

func TestCreateInvalidPath(t *testing.T) {
	fs, _ := newFS(t, 3, 1, 100)
	for _, p := range []string{"", "dir/"} {
		if err := fs.Create(p, []byte("x"), ""); err == nil {
			t.Errorf("Create(%q) should fail", p)
		}
	}
}

func TestReadRange(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 100)
	data := randBytes(350, 4)
	if err := fs.Create("f", data, ""); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, n int64 }{
		{0, 10}, {95, 10}, {100, 100}, {250, 100}, {340, 100}, {0, 350}, {349, 1},
	}
	for _, c := range cases {
		got, err := fs.ReadRange("f", c.off, c.n)
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", c.off, c.n, err)
		}
		end := c.off + c.n
		if end > 350 {
			end = 350
		}
		if !bytes.Equal(got, data[c.off:end]) {
			t.Fatalf("ReadRange(%d,%d) mismatch", c.off, c.n)
		}
	}
	// Past EOF.
	if got, err := fs.ReadRange("f", 400, 10); err != nil || got != nil {
		t.Fatalf("past-EOF read = %v, %v", got, err)
	}
	// Negative.
	if _, err := fs.ReadRange("f", -1, 10); err == nil {
		t.Fatal("negative offset should error")
	}
	// A length whose end overflows int64 reads to EOF.
	if got, err := fs.ReadRange("f", 1, math.MaxInt64); err != nil || !bytes.Equal(got, data[1:]) {
		t.Fatalf("overflowing read = %d bytes, %v; want %d bytes", len(got), err, len(data)-1)
	}
}

func TestRackAwarePlacement(t *testing.T) {
	fs, c := newFS(t, 9, 3, 1000)
	writer := c.Nodes()[0].ID
	if err := fs.Create("f", randBytes(500, 5), writer); err != nil {
		t.Fatal(err)
	}
	chunks, _ := fs.Chunks("f")
	for _, ci := range chunks {
		if ci.Hosts[0] != writer {
			t.Fatalf("first replica on %s, want writer %s", ci.Hosts[0], writer)
		}
		r0 := c.RackOf(ci.Hosts[0])
		if c.RackOf(ci.Hosts[1]) != r0 {
			t.Fatalf("second replica rack %s, want same rack %s", c.RackOf(ci.Hosts[1]), r0)
		}
		if c.RackOf(ci.Hosts[2]) == r0 {
			t.Fatal("third replica should be on a different rack")
		}
		seen := map[string]bool{}
		for _, h := range ci.Hosts {
			if seen[h] {
				t.Fatal("duplicate replica node")
			}
			seen[h] = true
		}
	}
}

func TestPlacementDegradesSingleRack(t *testing.T) {
	// Single-rack cluster: third replica can't be off-rack; must still
	// get 3 distinct nodes.
	fs, _ := newFS(t, 5, 1, 1000)
	if err := fs.Create("f", randBytes(100, 6), ""); err != nil {
		t.Fatal(err)
	}
	chunks, _ := fs.Chunks("f")
	if got := len(chunks[0].Hosts); got != 3 {
		t.Fatalf("hosts = %d, want 3", got)
	}
}

func TestReplicationCappedByClusterSize(t *testing.T) {
	fs, _ := newFS(t, 2, 1, 1000)
	if err := fs.Create("f", randBytes(100, 7), ""); err != nil {
		t.Fatal(err)
	}
	chunks, _ := fs.Chunks("f")
	if got := len(chunks[0].Hosts); got != 2 {
		t.Fatalf("hosts = %d, want 2 (cluster size)", got)
	}
}

func TestReadSurvivesNodeFailures(t *testing.T) {
	fs, c := newFS(t, 6, 2, 100)
	data := randBytes(500, 8)
	if err := fs.Create("f", data, ""); err != nil {
		t.Fatal(err)
	}
	// Kill two nodes; with 3 replicas every chunk still has one.
	c.Kill(c.Nodes()[0].ID)
	c.Kill(c.Nodes()[1].ID)
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after failures")
	}
}

func TestReReplicate(t *testing.T) {
	fs, c := newFS(t, 6, 2, 100)
	data := randBytes(500, 9)
	if err := fs.Create("f", data, ""); err != nil {
		t.Fatal(err)
	}
	dead := c.Nodes()[0].ID
	c.Kill(dead)
	created, err := fs.ReReplicate()
	if err != nil {
		t.Fatal(err)
	}
	// Every chunk that had a replica on the dead node must be restored.
	chunks, _ := fs.Chunks("f")
	for _, ci := range chunks {
		if len(ci.Hosts) != 3 {
			t.Fatalf("chunk %d has %d hosts after re-replication", ci.Index, len(ci.Hosts))
		}
		for _, h := range ci.Hosts {
			if h == dead {
				t.Fatal("dead node still listed as host")
			}
		}
	}
	if created == 0 {
		t.Log("note: dead node held no replicas (possible with random placement)")
	}
	if got, err := fs.ReadAll("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data mismatch after re-replication: %v", err)
	}
}

func TestReReplicateDataLoss(t *testing.T) {
	// 3 nodes, replication capped at 3: kill all -> no replicas left.
	fs, c := newFS(t, 3, 1, 100)
	if err := fs.Create("f", randBytes(100, 10), ""); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		c.Kill(n.ID)
	}
	if _, err := fs.ReReplicate(); err == nil {
		t.Fatal("want data-loss error")
	}
	if _, err := fs.ReadAll("f"); err == nil {
		t.Fatal("read should fail when all replicas dead")
	}
}

func TestListAndDelete(t *testing.T) {
	fs, _ := newFS(t, 3, 1, 100)
	for _, p := range []string{"in/a", "in/b", "out/c"} {
		if err := fs.Create(p, []byte("x"), ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.List("in"); len(got) != 2 || got[0] != "in/a" || got[1] != "in/b" {
		t.Fatalf("List(in) = %v", got)
	}
	if got := fs.List("in/"); len(got) != 2 {
		t.Fatalf("List(in/) = %v", got)
	}
	if got := fs.List(""); len(got) != 3 {
		t.Fatalf("List() = %v", got)
	}
	if err := fs.Delete("in/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("in/a") {
		t.Fatal("deleted file still exists")
	}
	if err := fs.Delete("in/a"); err == nil {
		t.Fatal("double delete should fail")
	}
	fs.DeleteDir("in")
	if got := fs.List(""); len(got) != 1 || got[0] != "out/c" {
		t.Fatalf("after DeleteDir: %v", got)
	}
	// Blocks must actually be freed.
	if s := fs.Stats(); s.Files != 1 {
		t.Fatalf("Stats.Files = %d", s.Files)
	}
}

func TestStats(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 100)
	if err := fs.Create("f", randBytes(250, 11), ""); err != nil {
		t.Fatal(err)
	}
	s := fs.Stats()
	if s.Files != 1 || s.Chunks != 3 || s.Bytes != 250 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.Blocks != 9 { // 3 chunks x 3 replicas
		t.Fatalf("Blocks = %d, want 9", s.Blocks)
	}
}

func TestPlacementSpreadsLoad(t *testing.T) {
	// Writing many chunks from an off-cluster client must not
	// concentrate all primaries on one node.
	fs, _ := newFS(t, 8, 2, 10)
	if err := fs.Create("big", randBytes(10*200, 12), ""); err != nil {
		t.Fatal(err)
	}
	s := fs.Stats()
	if len(s.BlocksPerNode) < 6 {
		t.Fatalf("blocks concentrated on %d nodes: %v", len(s.BlocksPerNode), s.BlocksPerNode)
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs, _ := newFS(t, 3, 1, 100)
	if _, err := fs.ReadAll("nope"); err == nil {
		t.Error("ReadAll missing file should error")
	}
	if _, err := fs.Chunks("nope"); err == nil {
		t.Error("Chunks missing file should error")
	}
	if _, err := fs.Size("nope"); err == nil {
		t.Error("Size missing file should error")
	}
	if _, err := fs.ReadRange("nope", 0, 1); err == nil {
		t.Error("ReadRange missing file should error")
	}
}

func TestConcurrentCreateRead(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 1000)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			path := fmt.Sprintf("dir/f%02d", i)
			data := randBytes(5000, int64(i))
			if err := fs.Create(path, data, ""); err != nil {
				done <- err
				return
			}
			got, err := fs.ReadAll(path)
			if err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got, data) {
				done <- fmt.Errorf("%s: data mismatch", path)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(fs.List("dir")); got != 16 {
		t.Fatalf("List = %d files", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	c, _ := cluster.NewUniform(3, 1, 2)
	fs, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fs.ChunkSize() != DefaultChunkSize {
		t.Fatalf("ChunkSize = %d", fs.ChunkSize())
	}
}

func TestNewNoNodes(t *testing.T) {
	c, _ := cluster.NewUniform(1, 1, 1)
	c.Kill(c.Nodes()[0].ID)
	if _, err := New(c, Config{}); err == nil {
		t.Fatal("New on dead cluster should error")
	}
}

func TestLinesSurviveChunkBoundaries(t *testing.T) {
	// Write line-oriented data whose lines straddle chunk boundaries
	// and verify ReadRange-based reconstruction (what the MapReduce
	// record reader will rely on).
	fs, _ := newFS(t, 6, 2, 64)
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "record-%03d,with,some,fields\n", i)
	}
	data := []byte(sb.String())
	if err := fs.Create("lines", data, ""); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("lines")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	chunks, _ := fs.Chunks("lines")
	if len(chunks) < 10 {
		t.Fatalf("expected many chunks, got %d", len(chunks))
	}
}

func TestChecksumFallbackOnCorruptReplica(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 100)
	data := randBytes(250, 21)
	if err := fs.Create("f", data, ""); err != nil {
		t.Fatal(err)
	}
	// Corrupt one replica of the first chunk: reads must silently fall
	// over to a clean replica.
	node, err := fs.CorruptReplica("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if node == "" {
		t.Fatal("no node reported")
	}
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned corrupt data")
	}
}

func TestScrubChecksums(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 100)
	data := randBytes(250, 22)
	if err := fs.Create("f", data, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CorruptReplica("f", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CorruptReplica("f", 120); err != nil {
		t.Fatal(err)
	}
	removed, err := fs.ScrubChecksums()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("scrub removed %d replicas, want 2", removed)
	}
	// Replication restored: every chunk has 3 valid hosts again.
	chunks, _ := fs.Chunks("f")
	for _, ci := range chunks {
		if len(ci.Hosts) != 3 {
			t.Fatalf("chunk %d has %d hosts after scrub", ci.Index, len(ci.Hosts))
		}
	}
	if got, _ := fs.ReadAll("f"); !bytes.Equal(got, data) {
		t.Fatal("data mismatch after scrub")
	}
	// A clean filesystem scrubs to zero.
	if n, err := fs.ScrubChecksums(); err != nil || n != 0 {
		t.Fatalf("second scrub: %d, %v", n, err)
	}
}

func TestAllReplicasCorruptFailsRead(t *testing.T) {
	fs, _ := newFS(t, 3, 1, 1000)
	if err := fs.Create("f", randBytes(100, 23), ""); err != nil {
		t.Fatal(err)
	}
	// Corrupt every replica.
	for i := 0; i < 3; i++ {
		if _, err := fs.CorruptReplica("f", 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.ReadAll("f"); err == nil {
		t.Fatal("read of fully corrupt chunk should fail")
	}
	if _, err := fs.CorruptReplica("nope", 0); err == nil {
		t.Fatal("corrupting missing file should error")
	}
	if _, err := fs.CorruptReplica("f", 9999); err == nil {
		t.Fatal("corrupting past EOF should error")
	}
}

func TestBalanceEvensBlockCounts(t *testing.T) {
	// Write everything from one datanode: its local-first placement
	// concentrates primaries there; Balance must spread them.
	fs, c := newFS(t, 6, 2, 50)
	writer := c.Nodes()[0].ID
	data := randBytes(50*40, 31) // 40 chunks
	if err := fs.Create("big", data, writer); err != nil {
		t.Fatal(err)
	}
	before := fs.Stats().BlocksPerNode
	if before[writer] != 40 {
		t.Fatalf("writer holds %d blocks, want 40 (local-first placement)", before[writer])
	}
	moves := fs.Balance()
	if moves == 0 {
		t.Fatal("balancer moved nothing")
	}
	after := fs.Stats().BlocksPerNode
	maxB, minB := 0, 1<<30
	for _, n := range c.Nodes() {
		b := after[n.ID]
		if b > maxB {
			maxB = b
		}
		if b < minB {
			minB = b
		}
	}
	if maxB-minB >= 2 {
		t.Fatalf("still unbalanced after Balance: %v", after)
	}
	// Data must remain intact and replica lists consistent.
	got, err := fs.ReadAll("big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data corrupted by balancer: %v", err)
	}
	chunks, _ := fs.Chunks("big")
	for _, ci := range chunks {
		seen := map[string]bool{}
		for _, h := range ci.Hosts {
			if seen[h] {
				t.Fatal("duplicate replica host after balance")
			}
			seen[h] = true
		}
		if len(ci.Hosts) != 3 {
			t.Fatalf("chunk %d has %d hosts", ci.Index, len(ci.Hosts))
		}
	}
}

func TestBalanceNoOpWhenEven(t *testing.T) {
	fs, _ := newFS(t, 4, 2, 100)
	if err := fs.Create("f", randBytes(400, 32), ""); err != nil {
		t.Fatal(err)
	}
	fs.Balance()
	if moves := fs.Balance(); moves != 0 {
		t.Fatalf("second balance moved %d blocks", moves)
	}
}

func TestIOStatsCountsTraffic(t *testing.T) {
	fs, _ := newFS(t, 6, 2, 100)
	if s := fs.IOStats(); s != (IOStatsSnapshot{}) {
		t.Fatalf("fresh FS has non-zero I/O stats: %+v", s)
	}
	data := randBytes(250, 7) // 3 chunks at chunk size 100
	if err := fs.Create("data/f", data, ""); err != nil {
		t.Fatal(err)
	}
	s := fs.IOStats()
	if s.BytesWritten != 250 {
		t.Errorf("BytesWritten = %d, want 250", s.BytesWritten)
	}
	if s.BytesRead != 0 || s.ChunksRead != 0 {
		t.Errorf("write alone counted reads: %+v", s)
	}
	if _, err := fs.ReadAll("data/f"); err != nil {
		t.Fatal(err)
	}
	s = fs.IOStats()
	if s.ChunksRead != 3 {
		t.Errorf("ChunksRead = %d, want 3", s.ChunksRead)
	}
	if s.BytesRead != 250 {
		t.Errorf("BytesRead = %d, want 250", s.BytesRead)
	}
	// A ranged read touches only the chunks that overlap the range.
	if _, err := fs.ReadRange("data/f", 120, 50); err != nil {
		t.Fatal(err)
	}
	s2 := fs.IOStats()
	if got := s2.ChunksRead - s.ChunksRead; got != 1 {
		t.Errorf("ReadRange touched %d chunks, want 1", got)
	}
}
