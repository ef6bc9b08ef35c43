package geolife

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
)

func TestPLTDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := Generate(Config{Users: 3, TotalTraces: 5000, Seed: 4})
	if err := WritePLTDir(dir, ds, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPLTDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTraces() != ds.NumTraces() {
		t.Fatalf("round-trip traces = %d, want %d", back.NumTraces(), ds.NumTraces())
	}
	if len(back.Trails) != 3 {
		t.Fatalf("users = %d", len(back.Trails))
	}
	// Trails must be chronologically merged across session files.
	for _, tr := range back.Trails {
		for i := 1; i < len(tr.Traces); i++ {
			if tr.Traces[i].Time.Before(tr.Traces[i-1].Time) {
				t.Fatalf("user %s: traces out of order after reload", tr.User)
			}
		}
	}
	// Spot-check coordinates survive with PLT precision.
	a, b := ds.Trails[0].Traces[0], back.Trails[0].Traces[0]
	if a.Time != b.Time || a.Point.String() != b.Point.String() {
		t.Fatalf("first trace mismatch: %+v vs %+v", a, b)
	}
}

func TestPLTDirSessionSplitting(t *testing.T) {
	dir := t.TempDir()
	ds := Generate(Config{Users: 1, TotalTraces: 3000, Seed: 5})
	if err := WritePLTDir(dir, ds, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	// The generator produces multiple sessions per day, so the user
	// must have many .plt files, one per session.
	stats, err := StatPLTDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Users != 1 {
		t.Fatalf("users = %d", stats.Users)
	}
	sessions := SessionsOf(&ds.Trails[0], 30*time.Minute)
	if stats.Files != len(sessions) {
		t.Fatalf("files = %d, sessions = %d", stats.Files, len(sessions))
	}
	if stats.Files < 5 {
		t.Fatalf("expected several session files, got %d", stats.Files)
	}
	if stats.Bytes <= 0 {
		t.Fatal("no bytes counted")
	}
}

func TestSessionsOfGapBoundary(t *testing.T) {
	ds := Generate(Config{Users: 1, TotalTraces: 500, Seed: 6})
	tr := &ds.Trails[0]
	sessions := SessionsOf(tr, 30*time.Minute)
	total := 0
	for _, s := range sessions {
		total += len(s.Traces)
		if len(s.Traces) == 0 {
			t.Fatal("empty session")
		}
		// Intra-session gaps are bounded.
		for i := 1; i < len(s.Traces); i++ {
			if s.Traces[i].Time.Sub(s.Traces[i-1].Time) > 30*time.Minute {
				t.Fatal("gap inside session")
			}
		}
	}
	if total != len(tr.Traces) {
		t.Fatalf("sessions cover %d traces, want %d", total, len(tr.Traces))
	}
	if len(SessionsOf(&ds.Trails[0], 0)) != len(sessions) {
		t.Fatal("zero gap should default to 30m")
	}
}

func TestReadPLTDirErrors(t *testing.T) {
	if _, err := ReadPLTDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing root should error")
	}
	empty := t.TempDir()
	if _, err := ReadPLTDir(empty); err == nil {
		t.Fatal("empty root should error")
	}
	// A user dir with corrupt PLT content must error.
	bad := t.TempDir()
	traj := filepath.Join(bad, "000", "Trajectory")
	if err := os.MkdirAll(traj, 0o755); err != nil {
		t.Fatal(err)
	}
	header := "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\nl5\nl6\n"
	if err := os.WriteFile(filepath.Join(traj, "x.plt"), []byte(header+"not,a,valid,record,line,at,all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPLTDir(bad); err == nil {
		t.Fatal("corrupt PLT should error")
	}
}

func TestLocalRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := Generate(Config{Users: 2, TotalTraces: 1000, Seed: 7})
	if err := WriteRecordsLocal(dir, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecordsLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTraces() != 1000 || len(back.Trails) != 2 {
		t.Fatalf("round-trip: %d traces, %d trails", back.NumTraces(), len(back.Trails))
	}
	if _, err := ReadRecordsLocal(t.TempDir()); err == nil {
		t.Fatal("empty dir should error")
	}
}

func TestTruthSaveLoadRoundTrip(t *testing.T) {
	_, truth := GenerateWithTruth(Config{Users: 3, TotalTraces: 300, Seed: 8})
	path := filepath.Join(t.TempDir(), "truth.json")
	if err := SaveTruth(path, truth); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range truth.Homes {
		if back.Homes[u] != p {
			t.Fatalf("home %s mismatch", u)
		}
		if back.Works[u] != truth.Works[u] {
			t.Fatalf("work %s mismatch", u)
		}
		if len(back.Leisure[u]) != len(truth.Leisure[u]) {
			t.Fatalf("leisure %s count mismatch", u)
		}
	}
	if _, err := LoadTruth(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing truth file should error")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, []byte("{not json"), 0o644)
	if _, err := LoadTruth(badPath); err == nil {
		t.Fatal("corrupt truth file should error")
	}
}

func TestWriteRecordsConcat(t *testing.T) {
	ds := Generate(Config{Users: 3, TotalTraces: 900, Seed: 9})
	c := newTestCluster(t)
	fs := newTestFS(t, c)
	if err := WriteRecordsConcat(fs, "big", ds, 4); err != nil {
		t.Fatal(err)
	}
	files := fs.List("big")
	if len(files) != 4 {
		t.Fatalf("files = %d, want 4", len(files))
	}
	back, err := ReadRecords(fs, "big")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTraces() != 900 {
		t.Fatalf("traces = %d", back.NumTraces())
	}
	// Roughly balanced files.
	var sizes []int64
	for _, f := range files {
		sz, _ := fs.Size(f)
		sizes = append(sizes, sz)
	}
	for _, sz := range sizes {
		if sz < sizes[0]/2 || sz > sizes[0]*2 {
			t.Fatalf("unbalanced concat files: %v", sizes)
		}
	}
}

// TestWriteRecordsConcatBytes pins the files' bytes against a
// per-trace Record()+"\n" reference over splits that do not divide
// evenly, including more files than traces.
func TestWriteRecordsConcatBytes(t *testing.T) {
	ds := Generate(Config{Users: 3, TotalTraces: 1001, Seed: 4})
	all := ds.AllTraces()
	for _, numFiles := range []int{1, 3, 7, 1002} {
		fs := newTestFS(t, newTestCluster(t))
		if err := WriteRecordsConcat(fs, "big", ds, numFiles); err != nil {
			t.Fatal(err)
		}
		perFile := (len(all) + numFiles - 1) / numFiles
		want := make([]string, numFiles)
		for i, tr := range all {
			want[i/perFile] += tr.Record() + "\n"
		}
		for f, w := range want {
			path := fmt.Sprintf("big/part-%03d.rec", f)
			got, err := fs.ReadAll(path)
			if err != nil {
				t.Fatalf("numFiles=%d: %v", numFiles, err)
			}
			if string(got) != w {
				t.Fatalf("numFiles=%d: %s holds %d bytes, want %d", numFiles, path, len(got), len(w))
			}
		}
		if files := fs.List("big"); len(files) != numFiles {
			t.Fatalf("numFiles=%d: %d files written", numFiles, len(files))
		}
	}
}

// test plumbing for DFS-backed helpers.
func newTestCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestFS(t *testing.T, c *cluster.Cluster) *dfs.FileSystem {
	t.Helper()
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}
